"""Backend selection threaded through the experiment layer.

The cycle engine is chosen once per :class:`ExperimentRunner` (argument >
``REPRO_BACKEND`` > default) and travels with every
:class:`~repro.experiments.parallel.WorkItem`, so a sweep's worker
processes always run the engine the parent resolved — and the cost model
and scheduling records know which engine produced each timing.  Because
backends are bit-identical by contract, cache identity (RunKey) does not
include the backend; the byte-diff test at the bottom pins that contract
at the sweep level, on the actual cache files a figure would consume.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.core.backends import DEFAULT_BACKEND
from repro.experiments import costmodel, parallel
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


# -- cost model -------------------------------------------------------------


def test_cost_model_buckets_split_by_backend():
    model = costmodel.CostModel()
    # prior: the vectorized engine is faster than the reference
    assert model.rate("icount", "mem", "vectorized") < model.rate(
        "icount", "mem", "reference"
    )
    # observations calibrate one engine's bucket without touching the other
    runner = _mini_runner(backend="vectorized")
    item = parallel.sweep_items(
        runner, figure2_config(32), ["icount"], list(runner.pool)
    )[0]
    ref_before = model.rate("icount", item.workload.wtype, "reference")
    vec_before = model.rate("icount", item.workload.wtype, "vectorized")
    for _ in range(8):
        model.observe(item, 123.0)
    assert model.rate("icount", item.workload.wtype, "vectorized") > (
        vec_before * 100
    )
    assert model.rate(
        "icount", item.workload.wtype, "reference"
    ) == pytest.approx(ref_before)


def test_cost_model_loads_version_1_file_cold(tmp_path):
    """A version-1 file (buckets keyed by fast-forward too) loads cold,
    and the next save overwrites it in the current format."""
    path = tmp_path / "cm.json"
    path.write_text(
        json.dumps(
            {
                "version": 1,
                "rates": {
                    "icount|ilp|vectorized|ff": {"rate": 0.5, "n": 9},
                    "icount|ilp|ff": {"rate": 0.5, "n": 9},
                },
            }
        )
    )
    model = costmodel.CostModel(path)
    prior = costmodel.CostModel()
    for backend in ("reference", "vectorized"):
        assert model.rate("icount", "ilp", backend) == prior.rate(
            "icount", "ilp", backend
        )
    runner = _mini_runner(backend="vectorized")
    item = parallel.sweep_items(
        runner, figure2_config(32), ["icount"], list(runner.pool)
    )[0]
    model.observe(item, 1.0)
    assert model.save()
    data = json.loads(path.read_text())
    assert data["version"] == costmodel.VERSION
    assert list(data["rates"]) == [f"icount|{item.workload.wtype}|vectorized"]


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
