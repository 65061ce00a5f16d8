"""Parallel fan-out tests: determinism, cache sharing, corruption recovery.

The contract under test (see ``repro/experiments/parallel.py``): a sweep at
any job count produces *field-for-field identical* RunRecords to a serial
sweep, and runners sharing one ``cache_dir`` — even concurrently — never
corrupt it or read a half-written entry.
"""

import dataclasses
import json
import threading

import pytest

from repro.experiments import parallel
from repro.experiments.parallel import TraceSpec, WorkloadSpec, resolve_jobs
from repro.experiments.runner import ExperimentRunner, figure2_config
from repro.trace.workloads import build_pool

# A tiny regenerable pool: 2 ISPEC00 workloads at smoke trace length.
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


def test_resolve_jobs(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert resolve_jobs(3) == 3
    assert resolve_jobs(None, default=1) == 1
    assert resolve_jobs() >= 1
    monkeypatch.setenv("REPRO_JOBS", "5")
    assert resolve_jobs() == 5
    assert resolve_jobs(2) == 2  # explicit argument wins over the env


def test_trace_spec_roundtrip(pool):
    tr = pool.workloads[0].traces[0]
    rebuilt = TraceSpec.of(tr).build()
    assert rebuilt.name == tr.name and rebuilt.seed == tr.seed
    assert (rebuilt.records == tr.records).all()


def test_workload_spec_rejects_handbuilt_traces(pool, ilp_trace):
    # conftest's hand-built trace has no category profile -> serial fallback
    wl = dataclasses.replace(pool.workloads[0], traces=(ilp_trace, ilp_trace))
    assert WorkloadSpec.of(wl) is None
    assert WorkloadSpec.of(pool.workloads[0]) is not None


def test_parallel_sweep_matches_serial(pool):
    """jobs=4 and serial sweeps agree on every field of every record."""
    config = figure2_config(32)
    serial = ExperimentRunner("smoke", pool=pool)
    par = ExperimentRunner("smoke", pool=pool, jobs=4)
    assert serial.jobs == 1  # library default stays serial

    rs = serial.sweep(config, POLICIES)
    rp = par.sweep(config, POLICIES)

    assert rs.keys() == rp.keys()
    for key in rs:
        assert dataclasses.asdict(rs[key]) == dataclasses.asdict(rp[key]), key
    # the parallel runner really simulated (in workers), not via some alias
    assert par.sims_run == len(rp)

    # run_singles: batch form agrees with one-at-a-time run_single
    traces = [tr for w in pool for tr in w.traces]
    singles = par.run_singles(config, traces, jobs=4)
    for tr, rec in zip(traces, singles):
        assert dataclasses.asdict(rec) == dataclasses.asdict(
            serial.run_single(config, tr)
        )


def test_run_and_hit_counts_do_not_depend_on_jobs(pool, tmp_path):
    """Each key counts once, as a simulation run or as a cache hit, at
    any worker count: on a fresh cache and on a fully cached one."""
    config = figure2_config(32)
    traces = [w.traces[0] for w in pool]
    n = len(POLICIES) * len(pool.workloads) + len(traces)
    counts = {1: [], 2: []}
    for jobs, seen in counts.items():
        for _ in ("fresh", "cached"):
            runner = ExperimentRunner(
                "smoke", cache_dir=tmp_path / f"jobs{jobs}", pool=pool, jobs=jobs
            )
            runner.sweep(config, POLICIES)
            runner.run_singles(config, traces)
            seen.append((runner.sims_run, runner.cache_hits))
    assert counts[1] == counts[2] == [(n, 0), (0, n)]


def test_concurrent_runners_share_cache_dir(pool, tmp_path):
    """Two runners racing on the same keys and cache_dir: no corruption."""
    config = figure2_config(32)
    runners = [
        ExperimentRunner("smoke", cache_dir=tmp_path, pool=pool) for _ in range(2)
    ]
    errors = []

    def work(r):
        try:
            r.sweep(config, POLICIES)
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(r,)) for r in runners]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors

    # every cache entry on disk is complete, valid JSON...
    files = sorted(tmp_path.glob("*.json"))
    assert len(files) == len(POLICIES) * len(pool.workloads)
    for f in files:
        json.loads(f.read_text())
    # ...no temp files leak, and a fresh runner serves all keys from disk
    assert not list(tmp_path.glob("*.tmp"))
    fresh = ExperimentRunner("smoke", cache_dir=tmp_path, pool=pool)
    fresh.sweep(config, POLICIES)
    assert fresh.sims_run == 0


def test_corrupt_cache_entry_is_rerun(pool, tmp_path):
    """Unreadable cache files count as misses: deleted, re-run, rewritten."""
    config = figure2_config(32)
    wl = pool.workloads[0]
    writer = ExperimentRunner("smoke", cache_dir=tmp_path, pool=pool)
    rec = writer.run(config, "icount", wl)

    path = tmp_path / writer.key_for(config, "icount", wl).filename()
    assert path.exists()
    path.write_text('{"ipc": 1.0, "cycles":')  # truncated writer

    reader = ExperimentRunner("smoke", cache_dir=tmp_path, pool=pool)
    rec2 = reader.run(config, "icount", wl)
    assert reader.sims_run == 1  # treated as a miss
    assert dataclasses.asdict(rec2) == dataclasses.asdict(rec)
    json.loads(path.read_text())  # entry was rewritten intact
