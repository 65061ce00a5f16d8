"""Ablation: inter-cluster link latency sweep.

The paper concludes that "the ratio of inter-cluster communications is not
crucial in clustered SMT architectures ... because having two simultaneous
threads partially hides the communication penalties".  If that holds in
our model, multi-threaded throughput under CSSP should degrade only mildly
as the point-to-point link latency grows from 1 to 8 cycles, while a
single thread (nothing to hide behind) loses more, relatively.
"""

import dataclasses

from repro.core.simulator import run_simulation, run_workload
from repro.experiments.reporting import format_table
from repro.experiments.runner import figure2_config
from repro.experiments import save_json
from repro.metrics.throughput import mean

LATENCIES = (1, 2, 4, 8)


def bench_ablation_link_latency(runner, results_dir, capsys):
    workloads = [
        runner.pool.by_category(cat)[0] for cat in ("FSPEC00", "ISPEC00", "mixes")
    ]

    mt = {}
    st = {}
    for lat in LATENCIES:
        cfg = dataclasses.replace(figure2_config(32), link_latency=lat)
        mt[lat] = mean(
            [
                run_workload(
                    cfg, "cssp", wl,
                    warmup_uops=runner.scale.warmup_uops,
                    prewarm_caches=True,
                    max_cycles=runner.scale.max_cycles,
                ).ipc
                for wl in workloads
            ]
        )
        st[lat] = mean(
            [
                run_simulation(
                    cfg.with_threads(1), "icount", [wl.traces[0]],
                    warmup_uops=runner.scale.warmup_uops // 2,
                    prewarm_caches=True,
                    max_cycles=runner.scale.max_cycles,
                    stop="all_done",
                ).ipc
                for wl in workloads
            ]
        )

    rows = {
        f"{lat} cycles": {
            "SMT IPC": mt[lat],
            "SMT rel": mt[lat] / mt[1],
            "ST IPC": st[lat],
            "ST rel": st[lat] / st[1],
        }
        for lat in LATENCIES
    }
    table = format_table(
        "Ablation: link latency (CSSP 2-thread vs single thread)",
        rows,
        ["SMT IPC", "SMT rel", "ST IPC", "ST rel"],
        row_header="link latency",
    )
    with capsys.disabled():
        print()
        print(table)
    save_json(results_dir / "ablation_link_latency.json", rows)

    # MT degrades mildly even at 8x the latency (communication is hidden)
    assert mt[8] > 0.85 * mt[1]
    # and MT hides latency at least as well as a single thread does
    assert mt[8] / mt[1] >= st[8] / st[1] - 0.05
