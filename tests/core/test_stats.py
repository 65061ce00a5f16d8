"""Statistics block tests."""

import pytest

from repro.core.stats import IMBALANCE_CLASSES, STALL_CAUSES, SimStats


def test_initialization():
    s = SimStats(2)
    assert s.committed_per_thread == [0, 0]
    assert set(s.rename_stall_cycles) == set(STALL_CAUSES)
    assert set(s.imbalance) == set(IMBALANCE_CLASSES)


def test_derived_ratios():
    s = SimStats(2)
    s.cycles = 100
    s.committed = 250
    s.copies_arrived = 25
    s.iq_stalls = 50
    assert s.ipc == 2.5
    assert s.copies_per_committed == 0.1
    assert s.iq_stalls_per_committed == 0.2


def test_ratios_safe_on_zero():
    s = SimStats(2)
    assert s.ipc == 0.0
    assert s.copies_per_committed == 0.0
    assert s.iq_stalls_per_committed == 0.0
    assert s.thread_ipc(0) == 0.0


def test_imbalance_breakdown_sums_to_one():
    s = SimStats(2)
    s.imbalance[0] = [3, 1]
    s.imbalance[1] = [2, 2]
    s.imbalance[2] = [1, 1]
    breakdown = s.imbalance_breakdown()
    assert sum(breakdown.values()) == pytest.approx(1.0)
    assert breakdown["0 Integer"] == pytest.approx(0.3)
    assert breakdown["1 Mem"] == pytest.approx(0.1)


def test_imbalance_breakdown_empty():
    s = SimStats(2)
    assert all(v == 0.0 for v in s.imbalance_breakdown().values())


def test_as_dict_round_trips_key_fields():
    s = SimStats(2)
    s.cycles = 10
    s.committed = 20
    s.committed_per_thread = [12, 8]
    d = s.as_dict()
    assert d["cycles"] == 10
    assert d["ipc"] == 2.0
    assert d["committed_per_thread"] == [12, 8]
    assert "imbalance_breakdown" in d
    import json

    json.dumps(d)  # must be JSON-serializable


def test_as_dict_dumps_every_counter():
    """Every counter field reaches the dump, so identity suites and
    figure diffs that compare dumps compare every counter."""
    import dataclasses

    s = SimStats(2)
    names = [f.name for f in dataclasses.fields(SimStats) if f.name != "num_threads"]
    for i, name in enumerate(names):
        if isinstance(getattr(s, name), int):
            setattr(s, name, 1000 + i)
    d = s.as_dict()
    for name in names:
        assert name in d, name
        value = getattr(s, name)
        if isinstance(value, int):
            assert d[name] == value, name
