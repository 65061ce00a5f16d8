"""Extension benchmark: the paper's future-work schemes vs its proposal.

Section 6 closes by proposing to adapt sophisticated SMT allocation schemes
(DCRA [30], hill-climbing [32]) to the clustered machine using the paper's
conclusions.  This benchmark runs those adaptations next to Icount, CSSP
and CDPRF over a slice of the pool.

No paper numbers exist for this table — it extends the paper — but the
adaptations must at least beat the unmanaged baseline to be credible.
"""

from repro.experiments.reporting import format_table
from repro.experiments.runner import figure6_config
from repro.experiments import save_json
from repro.metrics.throughput import mean

SCHEMES = ("icount", "cssp", "cdprf", "dcra", "hillclimb")


def bench_extensions(runner, results_dir, capsys):
    cfg = figure6_config(64)
    all_runs = {pol: runner.sweep(cfg, [pol]) for pol in SCHEMES}

    base = all_runs["icount"]
    rows: dict[str, dict[str, float]] = {}
    for cat in runner.pool.categories():
        rows[cat] = {}
        for pol in SCHEMES[1:]:
            sp = [
                rec.ipc / base[("icount", c, n)].ipc
                for (p, c, n), rec in all_runs[pol].items()
                if c == cat
            ]
            rows[cat][pol] = mean(sp)
    rows["AVG"] = {
        pol: mean(
            [
                rec.ipc / base[("icount", c, n)].ipc
                for (p, c, n), rec in all_runs[pol].items()
            ]
        )
        for pol in SCHEMES[1:]
    }

    table = format_table(
        "Extensions: future-work schemes vs the paper's proposal "
        "(speedup vs Icount, 64 regs, IQ=32)",
        rows,
        list(SCHEMES[1:]),
    )
    with capsys.disabled():
        print()
        print(table)
    save_json(results_dir / "extensions.json", rows)

    avg = rows["AVG"]
    # every managed scheme must beat the unmanaged baseline
    for pol in SCHEMES[1:]:
        assert avg[pol] > 1.0, f"{pol} should beat icount"
