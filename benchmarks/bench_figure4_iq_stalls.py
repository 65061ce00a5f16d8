"""Figure 4: renaming stalls due to lack of issue-queue entries per
retired instruction, per scheme, at 32 entries.

Paper shape asserted:
* Stall and Flush+ are the most effective at preventing IQ stalls (they
  hold back the thread that would clog the queues);
* Icount suffers the most or near-most stalls (no admission limits);
* partitioned schemes land in between (their "stalls" are frequently just
  redirections to the non-preferred cluster).
"""

from repro.experiments import figure4_iq_stalls


def bench_figure4(runner, emit):
    fig = figure4_iq_stalls(runner)
    emit(fig, "figure4_iq_stalls")

    avg = fig.rows["AVG"]
    # Stall/Flush+ prevent queue-full events best (paper Figure 4)
    assert avg["stall"] < avg["icount"] * 0.5
    assert avg["flush+"] < avg["icount"]
    # partitions reduce stalls relative to icount but not to zero
    for pol in ("cisp", "cssp", "cspsp", "pc"):
        assert avg[pol] < avg["icount"] * 1.2
        assert avg[pol] > avg["stall"]
