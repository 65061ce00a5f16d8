"""Figure 2: throughput of the seven IQ assignment schemes at 32 and 64
issue-queue entries per cluster (unbounded RF/ROB), normalized to
Icount@32.

Paper shape asserted:
* the static partitions (CISP/CSSP/CSPSP) clearly beat Icount at 32;
* PC is the weakest partition scheme (workload imbalance);
* everything gains at 64 entries (starvation eases).
"""

from repro.experiments import figure2_iq_throughput


def bench_figure2(runner, emit):
    fig = figure2_iq_throughput(runner)
    emit(fig, "figure2_iq_throughput")

    avg = fig.rows["AVG"]
    # partitioned schemes beat Icount at 32 entries (paper: ~+15%)
    for pol in ("cisp", "cssp", "cspsp"):
        assert avg[f"{pol}@32"] > 1.02, f"{pol} should beat icount at IQ=32"
    # PC is the weakest partitioning scheme (paper Section 5.1)
    assert avg["pc@32"] < avg["cssp@32"]
    assert avg["pc@32"] < avg["cspsp@32"]
    # more IQ entries help the baseline (starvation eases)
    assert avg["icount@64"] > avg["icount@32"]
    # CSSP keeps (most of) its advantage at 64 too
    assert avg["cssp@64"] > avg["icount@64"] * 0.98
