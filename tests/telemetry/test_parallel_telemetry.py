"""Telemetry through the experiment runner and the process-pool fan-out.

The contract: with a ``telemetry_dir`` set, every run exports one directory
per :class:`RunKey`, and those directories are byte-identical at any
``jobs=`` count — telemetry is collected in whatever process ran the
simulation, and the exporters contain nothing process- or time-dependent.
"""

import dataclasses
import json

import pytest

from repro.experiments import parallel
from repro.experiments.runner import ExperimentRunner, figure2_config
from repro.telemetry.export import META_JSON, exports_complete
from repro.trace.workloads import build_pool

POOL_KW = dict(
    n_uops=2500, n_ilp=1, n_mem=1, n_mix=0, n_mixes_category=0,
    categories=("ISPEC00",),
)
POLICIES = ["icount", "cssp"]
ALL_FILES = ("samples.csv", "samples.jsonl", "events.jsonl", "trace.json",
             META_JSON)


@pytest.fixture(scope="module")
def pool():
    return build_pool(**POOL_KW)


@pytest.fixture(scope="module", autouse=True)
def _teardown_pool():
    yield
    parallel.shutdown()


def _export_dirs(base):
    return sorted(p for p in base.iterdir() if p.is_dir())


def test_exports_byte_identical_at_any_jobs_count(pool, tmp_path):
    config = figure2_config(32)
    serial = ExperimentRunner(
        "smoke", pool=pool, telemetry_dir=tmp_path / "serial"
    )
    par = ExperimentRunner(
        "smoke", pool=pool, jobs=4, telemetry_dir=tmp_path / "par"
    )

    rs = serial.sweep(config, POLICIES)
    rp = par.sweep(config, POLICIES)
    assert rs.keys() == rp.keys()
    for key in rs:
        assert dataclasses.asdict(rs[key]) == dataclasses.asdict(rp[key]), key

    sdirs = _export_dirs(tmp_path / "serial")
    pdirs = _export_dirs(tmp_path / "par")
    assert [d.name for d in sdirs] == [d.name for d in pdirs]
    assert len(sdirs) == len(POLICIES) * len(pool.workloads)
    for sd, pd in zip(sdirs, pdirs):
        for name in ALL_FILES:
            assert (sd / name).read_bytes() == (pd / name).read_bytes(), (
                f"{sd.name}/{name}"
            )


def test_cached_record_without_export_triggers_rerun(pool, tmp_path):
    """A cache hit is only honoured when its telemetry export is complete,
    on the serial path and in the dispatchers' ``is_complete`` alike."""
    config = figure2_config(32)
    wl = pool.workloads[0]

    # populate the record cache with telemetry off
    plain = ExperimentRunner("smoke", cache_dir=tmp_path / "cache", pool=pool)
    rec = plain.run(config, "icount", wl)
    assert plain.sims_run == 1

    # same cache, telemetry on: record exists but exports do not -> re-run
    teldir = tmp_path / "tel"
    observed = ExperimentRunner(
        "smoke", cache_dir=tmp_path / "cache", pool=pool, telemetry_dir=teldir
    )
    (item,) = parallel.sweep_items(observed, config, ["icount"], [wl])
    assert not parallel.is_complete(observed, item)
    rec2 = observed.run(config, "icount", wl)
    assert observed.sims_run == 1
    assert dataclasses.asdict(rec2) == dataclasses.asdict(rec)
    key = observed.key_for(config, "icount", wl)
    assert exports_complete(observed.telemetry_path(key))

    # now both record and exports exist -> pure cache hit
    again = ExperimentRunner(
        "smoke", cache_dir=tmp_path / "cache", pool=pool, telemetry_dir=teldir
    )
    assert parallel.is_complete(again, item)
    again.run(config, "icount", wl)
    assert again.sims_run == 0


def test_worker_exports_match_meta(pool, tmp_path):
    """Worker-written meta.json agrees with the merged run records."""
    config = figure2_config(32)
    runner = ExperimentRunner(
        "smoke", pool=pool, jobs=2, telemetry_dir=tmp_path
    )
    runner.sweep(config, ["icount"])
    dirs = _export_dirs(tmp_path)
    assert len(dirs) == len(pool.workloads)
    for d in dirs:
        meta = json.loads((d / META_JSON).read_text())
        assert meta["policy"] == "icount"
        assert meta["samples"] >= 1
        assert meta["workload"]
