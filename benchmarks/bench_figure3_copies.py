"""Figure 3: inter-cluster communication (copies per retired instruction)
for each IQ scheme at 32 entries.

Paper shape asserted:
* PC generates no copies at all (threads never span clusters);
* every other scheme communicates (paper average ~0.1-0.26);
* yet high-copy schemes still win Figure 2 — communication is hidden by
  multithreaded execution (checked in bench_figure2).
"""

from repro.experiments import figure3_copies


def bench_figure3(runner, emit):
    fig = figure3_copies(runner)
    emit(fig, "figure3_copies")

    avg = fig.rows["AVG"]
    assert avg["pc"] == 0.0, "private clusters must not communicate"
    for pol in ("icount", "stall", "flush+", "cisp", "cssp", "cspsp"):
        assert 0.01 < avg[pol] < 0.6, f"{pol} copies/instr out of range"
    # cluster-spreading schemes communicate at least as much as icount-family
    assert avg["cssp"] > 0.5 * avg["icount"]
