"""Figure 5: workload-imbalance breakdown for Icount/CISP/CSSP/PC.

Each row (category/scheme) splits the ready-but-unissued events into six
sections: ``0 <class>`` — the other cluster could not have executed the uop
either; ``1 <class>`` — the other cluster had a free compatible port (a
genuine balance loss).  Perfect balance would put 100% in the ``0``
sections.

Paper shape asserted:
* sections sum to 1 per row;
* CSSP has better balance (higher ``0`` share) than PC on average —
  statically binding threads to clusters wastes the other cluster's ports.
"""

import pytest

from repro.experiments import figure5_imbalance


def bench_figure5(runner, emit):
    fig = figure5_imbalance(runner)
    emit(fig, "figure5_imbalance")

    for name, cells in fig.rows.items():
        assert sum(cells.values()) == pytest.approx(1.0, abs=1e-6), name

    def balanced_share(scheme: str) -> float:
        cells = fig.rows[f"AVG/{scheme}"]
        return sum(v for k, v in cells.items() if k.startswith("0 "))

    # cluster-sensitive partitioning preserves balance better than private
    # clusters (paper: PC "dramatically" reduces workload balance)
    assert balanced_share("cssp") > balanced_share("pc")
