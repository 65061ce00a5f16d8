"""Rerun after an interruption: the result cache is the record of what
finished.

A key is done when its cache entry reads back and, with telemetry on, its
export directory holds ``meta.json``; a rerun on the same cache dir, with
no flag, executes exactly the keys that are not done.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments import parallel
from repro.experiments.runner import ExperimentRunner, figure2_config
from repro.trace.workloads import build_pool

POOL_KW = dict(
    n_uops=2500, n_ilp=1, n_mem=1, n_mix=0, n_mixes_category=0,
    categories=("ISPEC00",),
)
POLICIES = ["icount", "cssp"]


@pytest.fixture(scope="module")
def pool():
    return build_pool(**POOL_KW)


@pytest.fixture(scope="module", autouse=True)
def _teardown_pool():
    yield
    parallel.shutdown()


def test_resume_runs_only_missing(pool, tmp_path):
    """A partial run leaves a partial cache; a rerun executes the rest."""
    config = figure2_config(32)
    first = ExperimentRunner("smoke", pool=pool, cache_dir=tmp_path)
    first.run(config, "icount", pool.workloads[0])  # 1 of 4 done

    resumed = ExperimentRunner("smoke", pool=pool, cache_dir=tmp_path)
    resumed.sweep(config, POLICIES)
    assert resumed.sims_run == len(POLICIES) * len(pool.workloads) - 1
    assert resumed.cache_hits == 1


def test_parallel_resume_matches_serial(pool, tmp_path):
    """Resuming on the worker pool completes the sweep bit-identically."""
    import dataclasses

    config = figure2_config(32)
    ref = ExperimentRunner("smoke", pool=pool)
    expected = ref.sweep(config, POLICIES)

    partial = ExperimentRunner("smoke", pool=pool, cache_dir=tmp_path)
    partial.run(config, POLICIES[0], pool.workloads[0])
    resumed = ExperimentRunner("smoke", pool=pool, cache_dir=tmp_path, jobs=2)
    got = resumed.sweep(config, POLICIES)
    assert resumed.sims_run == len(expected) - 1
    assert got.keys() == expected.keys()
    for key in expected:
        assert dataclasses.asdict(got[key]) == dataclasses.asdict(expected[key]), key


# -- kill/resume smoke ------------------------------------------------------


def test_kill_and_resume_smoke(tmp_path):
    """SIGKILL a sweep mid-run; a plain rerun completes exactly the rest
    (scripts/resume_smoke.py, also exercised by CI)."""
    repo = Path(__file__).resolve().parents[2]
    proc = subprocess.run(
        [sys.executable, str(repo / "scripts" / "resume_smoke.py"),
         "--cache-dir", str(tmp_path / "cache")],
        capture_output=True, text=True, timeout=300,
        env={**__import__("os").environ,
             "PYTHONPATH": str(repo / "src"),
             "REPRO_TRACE_CACHE": str(tmp_path / "traces"),
             "REPRO_COST_MODEL": str(tmp_path / "cm.json")},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert summary["resumed_sims"] == summary["total"] - summary["cached_before"]
    assert summary["complete"] is True
