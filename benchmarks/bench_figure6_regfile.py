"""Figure 6: static register-file partitioning (CSSP vs CSSPRF vs CISPRF)
at 64 and 128 registers per cluster, normalized to Icount@64regs.

Paper shape asserted:
* CSSPRF never beats CISPRF on average (cluster-sensitive RF control
  conflicts with the IQ scheme's steering decisions);
* the 64->128 register step changes little for the unpartitioned scheme
  (the RF is "not a big source of thread starvation for this size");
* partitioning the RF hurts the register-class-disjoint ISPEC-FSPEC
  category (hardware underutilization) — the motivation for CDPRF.
"""

from repro.experiments import figure6_regfile


def bench_figure6(runner, emit):
    fig = figure6_regfile(runner)
    emit(fig, "figure6_regfile")

    avg = fig.rows["AVG"]
    # cluster-insensitive RF control dominates cluster-sensitive (paper:
    # "CSSPRF always performs worse than CISPRF")
    assert avg["cisprf@64"] >= avg["cssprf@64"] * 0.99
    assert avg["cisprf@128"] >= avg["cssprf@128"] * 0.99
    # doubling the registers is a modest effect for CSSP
    assert abs(avg["cssp@128"] - avg["cssp@64"]) < 0.25
    # static RF partitioning costs the disjoint-demand category
    isfs = fig.rows["ISPEC-FSPEC"]
    assert isfs["cssprf@64"] < isfs["cssp@64"]
