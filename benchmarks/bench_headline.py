"""Headline claims of the abstract: CSSP+CDPRF vs Icount.

Paper: 17.6% average throughput speedup (16% from CSSP's cluster-sensitive
issue queues + 1.6% from the dynamic register files) and 24% better
fairness.  We assert the *shape*: both components beat Icount on
throughput, the CDPRF stack is at least CSSP-level, and fairness does not
regress.
"""

from repro.experiments import headline_numbers


def bench_headline(runner, emit):
    fig = headline_numbers(runner)
    emit(fig, "headline")

    thr = fig.rows["throughput speedup vs icount"]
    fair = fig.rows["fairness speedup vs icount"]
    # CSSP alone clearly beats Icount (paper: ~+16%)
    assert thr["cssp"] > 1.03
    # the full proposal is at least CSSP-level (paper: +17.6% total)
    assert thr["cdprf"] > 1.03
    assert thr["cdprf"] > thr["cssp"] - 0.05
    # fairness does not regress vs Icount (paper: +24%)
    assert fair["cdprf"] > 0.9
