"""Ablation: how much does CSSP's win depend on the steering substrate?

All of the paper's schemes sit on the dependence+balance steering of Canal
et al. [12].  This ablation swaps the steering for two naive baselines —
round-robin (the clustered-SMT arrangement Raasch & Reinhardt evaluated)
and pure load-balance — and re-measures CSSP.

Expected: dependence-aware steering minimizes copies; round-robin pays for
many more inter-cluster values.
"""

from repro.core.simulator import run_workload
from repro.experiments.reporting import format_table
from repro.experiments.runner import figure2_config
from repro.experiments import save_json
from repro.frontend.steering import LoadBalanceSteering, RoundRobinSteering, Steering
from repro.metrics.throughput import mean

_STEERINGS = {
    "dependence": lambda cfg: Steering(cfg.steer_imbalance_threshold),
    "round-robin": lambda cfg: RoundRobinSteering(),
    "load-balance": lambda cfg: LoadBalanceSteering(),
}


def bench_ablation_steering(runner, results_dir, capsys):
    cfg = figure2_config(32)
    workloads = [
        runner.pool.by_category(cat)[0]
        for cat in ("ISPEC00", "FSPEC00", "server", "mixes")
    ]

    results = {}
    for name, factory in _STEERINGS.items():
        for wl in workloads:
            res = run_workload(
                cfg,
                "cssp",
                wl,
                steering=factory(cfg),
                warmup_uops=runner.scale.warmup_uops,
                prewarm_caches=True,
                max_cycles=runner.scale.max_cycles,
            )
            results[(name, wl.category)] = (
                res.ipc,
                res.stats["copies_per_committed"],
            )

    rows = {}
    for name in _STEERINGS:
        ipcs = [v[0] for k, v in results.items() if k[0] == name]
        copies = [v[1] for k, v in results.items() if k[0] == name]
        rows[name] = {"mean IPC": mean(ipcs), "copies/instr": mean(copies)}
    table = format_table(
        "Ablation: steering substrate under CSSP (IQ=32)",
        rows,
        ["mean IPC", "copies/instr"],
        row_header="steering",
    )
    with capsys.disabled():
        print()
        print(table)
    save_json(results_dir / "ablation_steering.json", rows)

    # dependence-aware steering communicates the least
    assert rows["dependence"]["copies/instr"] < rows["round-robin"]["copies/instr"]
    # and performs at least as well as the naive baselines
    assert rows["dependence"]["mean IPC"] >= rows["round-robin"]["mean IPC"] * 0.95
