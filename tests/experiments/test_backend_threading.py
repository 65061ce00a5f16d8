"""Backend selection threaded through the experiment layer.

The cycle engine is chosen once per :class:`ExperimentRunner` (argument >
``REPRO_BACKEND`` > default) and travels with every
:class:`~repro.experiments.parallel.WorkItem`, so a sweep's worker
processes always run the engine the parent resolved — and the scheduling
records know which engine produced each timing.  Because
backends are bit-identical by contract, cache identity (RunKey) does not
include the backend; the byte-diff test at the bottom pins that contract
at the sweep level, on the actual cache files a figure would consume.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.backends import DEFAULT_BACKEND
from repro.experiments import parallel
from repro.experiments.runner import SCALES, ExperimentRunner, figure2_config
from repro.trace.workloads import build_pool


def _mini_runner(tmp_path=None, backend=None, name="mini"):
    scale = dataclasses.replace(
        SCALES["smoke"], name=name, n_uops=1200, warmup_frac=0.2
    )
    pool = build_pool(
        n_uops=1200,
        n_ilp=1,
        n_mem=1,
        n_mix=0,
        n_mixes_category=0,
        categories=("DH", "server"),
    )
    return ExperimentRunner(
        scale, pool=pool, cache_dir=tmp_path, backend=backend
    )


# -- resolution -------------------------------------------------------------


def test_runner_resolves_backend_eagerly(monkeypatch):
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    assert _mini_runner().backend == DEFAULT_BACKEND
    assert _mini_runner(backend="reference").backend == "reference"
    monkeypatch.setenv("REPRO_BACKEND", "reference")
    assert _mini_runner().backend == "reference"
    # explicit argument wins over the environment
    assert _mini_runner(backend="vectorized").backend == "vectorized"


def test_runner_rejects_unknown_backend_at_construction():
    with pytest.raises(ValueError, match="valid backends"):
        _mini_runner(backend="cython")


# -- work items -------------------------------------------------------------


def test_work_items_carry_the_runner_backend():
    runner = _mini_runner(backend="reference")
    config = figure2_config(32)
    items = parallel.sweep_items(runner, config, ["icount"], list(runner.pool))
    items += parallel.single_items(
        runner, config, [runner.pool.workloads[0].traces[0]]
    )
    assert items
    assert all(item.backend == "reference" for item in items)


# -- sweep-level bit-identity (the contract that keeps RunKey backend-free) --


@pytest.mark.slow
def test_sweep_cache_files_byte_identical_across_backends(tmp_path):
    ref_dir = tmp_path / "ref"
    vec_dir = tmp_path / "vec"
    config = figure2_config(32)
    for backend, cache_dir in (("reference", ref_dir), ("vectorized", vec_dir)):
        runner = _mini_runner(cache_dir, backend=backend)
        runner.sweep(config, ["icount", "flush+"], label=f"bd-{backend}")
        runner.run_singles(config, [w.traces[0] for w in runner.pool])
    ref_files = sorted(p.name for p in ref_dir.glob("*.json"))
    vec_files = sorted(p.name for p in vec_dir.glob("*.json"))
    assert ref_files == vec_files and ref_files
    for name in ref_files:
        assert (ref_dir / name).read_bytes() == (vec_dir / name).read_bytes(), name
