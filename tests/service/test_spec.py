"""JobSpec validation, canonicalization and content-key tests."""

import pytest

from repro.experiments.runner import figure2_config
from repro.service.spec import MAX_MACHINE_SIZE, JobSpec, SpecError

SWEEP = {
    "scale": "smoke",
    "policies": ["icount", "cssp"],
    "categories": ["ISPEC00"],
    "iq_entries": 32,
    "unbounded_regs": True,
    "unbounded_rob": True,
}


def key(kind, body):
    return JobSpec.from_json(kind, body).content_key()


def test_canonicalization_is_order_and_duplicate_independent():
    shuffled = dict(SWEEP, policies=["cssp", "icount", "icount"])
    assert key("sweep", SWEEP) == key("sweep", shuffled)


def test_content_key_tracks_the_simulated_work():
    base = key("sweep", SWEEP)
    assert key("sweep", dict(SWEEP, iq_entries=48)) != base
    assert key("sweep", dict(SWEEP, policies=["icount"])) != base
    assert key("sweep", dict(SWEEP, scale="quick")) != base
    assert key("sweep", dict(SWEEP, stop="all_done")) != base
    assert key("sweep", dict(SWEEP, unbounded_rob=False)) != base


def test_config_matches_figure2_config():
    spec = JobSpec.from_json("sweep", SWEEP)
    assert spec.config().digest() == figure2_config(32).digest()


def test_run_kind_roundtrip_and_index():
    body = {
        "scale": "smoke",
        "policy": "icount",
        "category": "ISPEC00",
        "index": 1,
    }
    spec = JobSpec.from_json("run", body)
    assert spec.policies == ("icount",)
    assert spec.categories == ("ISPEC00",)
    assert JobSpec.from_json("run", spec.to_json()) == spec
    assert key("run", body) != key("run", dict(body, index=2))


def test_sweep_roundtrip():
    at_bound = dict(SWEEP, iq_entries=MAX_MACHINE_SIZE, regs=MAX_MACHINE_SIZE)
    for body in (SWEEP, at_bound):
        spec = JobSpec.from_json("sweep", body)
        assert JobSpec.from_json("sweep", spec.to_json()) == spec


@pytest.mark.parametrize(
    "body",
    [
        {"policies": ["notapolicy"]},
        {"categories": ["NOPE"]},
        {"scale": "galactic"},
        {"iq_entries": 0},
        {"iq_entries": "many"},
        {"unbounded_regs": "yes"},
        {"stop": "whenever"},
        {"policies": []},
        {"frobnicate": 1},
        {"index": 0},  # sweep jobs have no index field
        {"iq_entries": MAX_MACHINE_SIZE + 1},
        {"regs": MAX_MACHINE_SIZE + 1},
    ],
)
def test_bad_sweep_bodies_raise_spec_error(body):
    with pytest.raises(SpecError):
        JobSpec.from_json("sweep", body)


def test_run_kind_needs_exactly_one_policy_and_category():
    with pytest.raises(SpecError):
        JobSpec.from_json("run", {"policies": ["icount", "cssp"],
                                  "category": "ISPEC00"})
    with pytest.raises(SpecError):
        JobSpec.from_json("run", {"policy": "icount"})


def test_unknown_kind_rejected():
    with pytest.raises(SpecError):
        JobSpec.from_json("batch", {})


def test_workload_selection(tmp_path):
    from repro.experiments.runner import ExperimentRunner

    pool = ExperimentRunner("smoke").pool
    sweep = JobSpec.from_json("sweep", SWEEP)
    names = [w.name for w in sweep.workloads(pool)]
    assert names == [w.name for w in pool.by_category("ISPEC00")]
    run = JobSpec.from_json(
        "run", {"policy": "icount", "category": "ISPEC00", "index": 0,
                "scale": "smoke"}
    )
    assert [w.name for w in run.workloads(pool)] == [names[0]]
