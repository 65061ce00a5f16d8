"""Table 2: build the benchmark pool and report its structure."""

from repro.experiments import table2_workloads


def bench_table2_pool(runner, emit):
    fig = table2_workloads(runner)
    emit(fig, "table2_workloads")
    assert fig.rows["total"]["MIX"] >= 1
    # every non-mixes category contributes all three workload types
    for cat, cells in fig.rows.items():
        if cat in ("mixes", "total"):
            continue
        assert cells["ILP"] >= 1 and cells["MEM"] >= 1 and cells["MIX"] >= 1
