"""Ablation: CDPRF adaptation-interval sensitivity.

The paper picks 128K cycles "because it is a power of 2 so that dividing
the RFOC by the interval is a simple shift".  On our (much shorter) runs
the interval scales with trace length; this ablation sweeps it to verify
the scheme is not knife-edge sensitive — the paper's choice implies a wide
plateau.
"""

from repro.core.simulator import run_workload
from repro.experiments.reporting import format_table
from repro.experiments.runner import figure6_config
from repro.experiments import save_json
from repro.metrics.throughput import mean
from repro.policies import make_policy

INTERVALS = (256, 1024, 4096, 16384)


def bench_ablation_cdprf_interval(runner, results_dir, capsys):
    cfg = figure6_config(64)
    workloads = runner.ispec_fspec_pool(2).workloads

    results = {}
    for interval in INTERVALS:
        ipcs = []
        for wl in workloads:
            res = run_workload(
                cfg,
                make_policy("cdprf", interval=interval),
                wl,
                warmup_uops=runner.scale.warmup_uops,
                prewarm_caches=True,
                max_cycles=runner.scale.max_cycles,
            )
            ipcs.append(res.ipc)
        results[interval] = mean(ipcs)

    rows = {
        f"{interval}": {"mean IPC": ipc, "vs best": ipc / max(results.values())}
        for interval, ipc in results.items()
    }
    table = format_table(
        "Ablation: CDPRF interval sweep (ISPEC-FSPEC, 64 regs)",
        rows,
        ["mean IPC", "vs best"],
        row_header="interval (cycles)",
    )
    with capsys.disabled():
        print()
        print(table)
    save_json(results_dir / "ablation_cdprf_interval.json", rows)

    # wide plateau: no interval in the sweep loses more than ~8% vs the best
    assert min(results.values()) > 0.92 * max(results.values())
