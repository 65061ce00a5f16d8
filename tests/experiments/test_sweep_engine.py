"""Sweep execution engine: pool lifecycle, cost model, progress.

``test_parallel.py`` pins the correctness contract (parallel == serial,
bit for bit); this file pins the *engine* around it — the persistent
executor, workers that synthesize their own traces, the cost-model
calibration that drives LPT dispatch, and the hit/ran/total progress
reporting.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments import costmodel, parallel
from repro.experiments.parallel import WorkItem, _Progress, resolve_jobs
from repro.experiments.runner import ExperimentRunner, RunKey, figure2_config
from repro.trace.workloads import build_pool

POOL_KW = dict(
    n_uops=2500, n_ilp=1, n_mem=1, n_mix=0, n_mixes_category=0,
    categories=("ISPEC00",),
)


@pytest.fixture(scope="module")
def pool():
    return build_pool(**POOL_KW)


@pytest.fixture(scope="module", autouse=True)
def _teardown_pool():
    yield
    parallel.shutdown()


# -- resolve_jobs hardening (REPRO_JOBS misconfiguration) -------------------


def test_resolve_jobs_rejects_malformed_env(monkeypatch):
    for bad in ("four", "3.5", "1e2", "2 workers"):
        monkeypatch.setenv("REPRO_JOBS", bad)
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            resolve_jobs()


def test_resolve_jobs_clamps_nonpositive(monkeypatch):
    for low in ("0", "-2"):
        monkeypatch.setenv("REPRO_JOBS", low)
        assert resolve_jobs() == 1
    monkeypatch.delenv("REPRO_JOBS")
    assert resolve_jobs(0) == 1
    assert resolve_jobs(-3) == 1


def test_resolve_jobs_rejects_malformed_argument(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    with pytest.raises(ValueError, match="jobs="):
        resolve_jobs("many")  # type: ignore[arg-type]


def test_resolve_jobs_whitespace_env_ignored(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "   ")
    assert resolve_jobs(None, default=1) == 1


# -- cost model -------------------------------------------------------------


def _item(pool, policy="icount", wl_idx=0, key_suffix=""):
    wl = pool.workloads[wl_idx]
    spec = parallel.WorkloadSpec.of(wl)
    assert spec is not None
    return WorkItem(
        key=RunKey("smoke", "cfg" + key_suffix, policy, wl.name, "first_done"),
        scale=None,  # never dispatched in these tests
        config=None,
        policy=policy,
        stop="first_done",
        workload=spec,
    )


def test_cost_model_prior_ordering(pool):
    model = costmodel.CostModel()
    # MEM-bound runs are slower than ILP; adaptive policies slower than
    # static ones
    assert model.rate("icount", "mem") > model.rate("icount", "ilp")
    assert model.rate("cdprf", "ilp") > model.rate("icount", "ilp")
    # estimates scale with trace size through item features
    mem_item = _item(pool, wl_idx=next(
        i for i, w in enumerate(pool.workloads) if w.wtype.value == "mem"
    ))
    ilp_item = _item(pool, wl_idx=next(
        i for i, w in enumerate(pool.workloads) if w.wtype.value == "ilp"
    ))
    assert model.estimate(mem_item) > model.estimate(ilp_item)


def test_cost_model_observe_and_persist(pool, tmp_path):
    path = tmp_path / "cm.json"
    model = costmodel.CostModel(path)
    item = _item(pool)
    prior = model.estimate(item)
    # feed consistent observations 3x the prior: EWMA should move the
    # estimate decisively toward the observed runtime
    for _ in range(8):
        model.observe(item, prior * 3)
    assert model.estimate(item) > prior * 2
    assert model.save() is True
    assert model.save() is False  # clean: no rewrite

    reloaded = costmodel.CostModel(path)
    assert reloaded.estimate(item) == pytest.approx(model.estimate(item))


def test_cost_model_corrupt_file_starts_cold(pool, tmp_path):
    path = tmp_path / "cm.json"
    path.write_text("{not json")
    model = costmodel.CostModel(path)
    item = _item(pool)
    assert model.estimate(item) > 0  # falls back to priors
    model.observe(item, 0.5)
    assert model.save() is True
    json.loads(path.read_text())  # overwritten with valid calibration


def test_cost_model_env_disable(monkeypatch):
    monkeypatch.setenv("REPRO_COST_MODEL", "0")
    assert costmodel.default_path() is None
    model = costmodel.CostModel(costmodel.default_path())
    assert model.save() is False


def test_cost_model_defaults_to_the_user_cache(monkeypatch, tmp_path):
    """Calibration persists under the user's cache, never inside the
    checkout, where every parallel sweep would rewrite a tracked file."""
    monkeypatch.delenv("REPRO_COST_MODEL", raising=False)
    monkeypatch.setenv("HOME", str(tmp_path))
    path = costmodel.default_path()
    assert path == tmp_path / ".cache" / "repro" / "cost_model.json"


# -- progress reporting -----------------------------------------------------


def test_progress_reports_hits_distinctly():
    prog = _Progress(to_run=3, hits=7, jobs=2, label="fig9 CDPRF")
    assert "10 sims" in prog.header()
    assert "7 cached" in prog.header()
    assert "3 to run" in prog.header()
    assert "fig9 CDPRF" in prog.header()
    key = RunKey("smoke", "cfg", "cdprf", "ISPEC00/mem.2.1", "first_done")
    prog.done = 2
    line = prog.line(key)
    assert "7 hit" in line and "2/3 ran" in line and "of 10" in line
    assert "cdprf/ISPEC00/mem.2.1" in line


# -- persistent executor ----------------------------------------------------


def test_executor_persists_across_sweeps(pool, tmp_path):
    """Two sweeps reuse one pool (warm workers), and the scheduling log
    records which worker ran each item."""
    parallel.shutdown()
    config = figure2_config(32)
    runner = ExperimentRunner("smoke", pool=pool, cache_dir=tmp_path, jobs=2)
    runner.sweep(config, ["icount"], label="first")
    first_exec = parallel._executor
    assert first_exec is not None
    runner.sweep(config, ["cssp"], label="second")
    assert parallel._executor is first_exec  # reused, not respawned

    assert len(runner.sweep_log) == 2 * len(pool.workloads)
    for rec in runner.sweep_log:
        assert rec["label"] in ("first", "second")
        assert rec["worker_pid"] > 0
        assert rec["elapsed_s"] > 0
        assert rec["predicted_s"] > 0
    # scheduling records are also persisted next to the cache
    trace_file = tmp_path / "sweep_trace.jsonl"
    lines = [json.loads(x) for x in trace_file.read_text().splitlines()]
    assert len(lines) == len(runner.sweep_log)


def test_executor_grows_on_demand(pool):
    parallel.shutdown()
    parallel.get_executor(1)
    assert parallel._executor_jobs == 1
    parallel.get_executor(3)
    assert parallel._executor_jobs == 3  # grew
    big = parallel._executor
    parallel.get_executor(2)
    assert parallel._executor is big  # smaller request reuses the big pool
    parallel.shutdown()
    assert parallel._executor is None


def test_fully_cached_sweep_skips_pool(pool, tmp_path):
    """A 100%-hit sweep never touches (or spawns) the executor."""
    config = figure2_config(32)
    warm = ExperimentRunner("smoke", pool=pool, cache_dir=tmp_path)
    warm.sweep(config, ["icount"])
    parallel.shutdown()
    cached = ExperimentRunner("smoke", pool=pool, cache_dir=tmp_path, jobs=4)
    cached.sweep(config, ["icount"])
    assert cached.sims_run == 0
    assert parallel._executor is None  # run_items returned before get_executor


# -- workers without a trace cache -----------------------------------------


def test_sweep_without_shm_matches_serial(pool, monkeypatch):
    """With the trace cache off, pool workers synthesize every trace from
    its seed: the slowest trace path, end to end."""
    parallel.shutdown()
    monkeypatch.setenv("REPRO_TRACE_CACHE", "0")
    config = figure2_config(32)
    serial = ExperimentRunner("smoke", pool=pool)
    par = ExperimentRunner("smoke", pool=pool, jobs=2)
    rs = serial.sweep(config, ["icount"])
    rp = par.sweep(config, ["icount"])
    assert rs.keys() == rp.keys()
    for key in rs:
        assert dataclasses.asdict(rs[key]) == dataclasses.asdict(rp[key]), key
    parallel.shutdown()


# -- interpreter-exit hygiene -----------------------------------------------


def test_clean_shutdown_at_interpreter_exit(tmp_path):
    """A process that sweeps on the pool and just exits leaks nothing:
    no shared-memory warnings, no orphan /dev/shm segments."""
    code = """
import repro.experiments.parallel as parallel
from repro.experiments.runner import ExperimentRunner, figure2_config
from repro.trace.workloads import build_pool

pool = build_pool(n_uops=2500, n_ilp=1, n_mem=1, n_mix=0,
                  n_mixes_category=0, categories=("ISPEC00",))
runner = ExperimentRunner("smoke", pool=pool, jobs=2)
runner.sweep(figure2_config(32), ["icount"])
print("RAN", runner.sims_run)
# no parallel.shutdown(): the atexit hook must handle teardown
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
    env["REPRO_TRACE_CACHE"] = str(tmp_path / "traces")
    env["REPRO_COST_MODEL"] = str(tmp_path / "cm.json")
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "RAN 2" in proc.stdout
    assert "leaked" not in proc.stderr  # resource_tracker leak warnings
    assert "Traceback" not in proc.stderr
    shm_dir = Path("/dev/shm")
    if shm_dir.is_dir():
        assert not list(shm_dir.glob("repro_*"))
