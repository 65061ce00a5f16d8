"""Fixtures of the figure suite (``pytest benchmarks/``).

One :class:`~repro.experiments.runner.ExperimentRunner` is shared by every
benchmark in the session, with a persistent disk cache under
``benchmarks/.cache`` — figures that share runs (2/3/4/5; 6/9/10/headline)
are measured from the same simulations, and re-running the suite is cheap.

Each benchmark prints its reproduced table, asserts the paper's shape and
writes a machine-readable JSON under ``benchmarks/results/``.  The
committed JSON is the suite's output at the default ``quick`` scale, from
an empty result cache; CI reruns it and fails on any difference.
``REPRO_SCALE`` selects another scale, but it overwrites the same files
(``git checkout benchmarks/results`` restores them) and the shape asserts
are calibrated on the ``quick`` pool.  Sweeps fan out over all cores by
default (``REPRO_JOBS=N`` to override — see
:mod:`repro.experiments.parallel`).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments import ExperimentRunner, save_json
from repro.experiments.parallel import resolve_jobs
from repro.experiments.runner import scale_from_env

_HERE = Path(__file__).parent


@pytest.fixture(scope="session")
def runner() -> ExperimentRunner:
    scale = scale_from_env(default="quick")
    return ExperimentRunner(
        scale, cache_dir=_HERE / ".cache" / scale.name, jobs=resolve_jobs()
    )


@pytest.fixture(scope="session")
def results_dir() -> Path:
    out = _HERE / "results"
    out.mkdir(exist_ok=True)
    return out


@pytest.fixture()
def emit(results_dir, capsys):
    """Print a FigureResult table and persist its JSON twin."""

    def _emit(fig, name: str) -> None:
        with capsys.disabled():
            print()
            print(fig.render())
        save_json(results_dir / f"{name}.json", fig.as_dict())

    return _emit
