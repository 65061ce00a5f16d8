"""Trace container and persistence tests."""

import gc

import numpy as np
import pytest

from repro.core.soa import TraceSoA, trace_soa
from repro.isa import NO_REG, UopClass
from repro.trace.trace import TRACE_DTYPE, Trace


def _records(n=4):
    rec = np.zeros(n, dtype=TRACE_DTYPE)
    rec["opclass"] = int(UopClass.INT_ALU)
    rec["dest"] = 1
    rec["src1"] = 0
    rec["src2"] = NO_REG
    rec["pc"] = np.arange(n)
    return rec


def test_requires_trace_dtype():
    with pytest.raises(TypeError):
        Trace(np.zeros(4, dtype=np.int64))


def test_len_and_metadata():
    t = Trace(_records(7), name="t", category="cat", kind="ilp", seed=3)
    assert len(t) == 7
    assert t.category == "cat" and t.kind == "ilp" and t.seed == 3


def test_validate_accepts_wellformed():
    Trace(_records()).validate()


def test_validate_rejects_copy_uops():
    rec = _records()
    rec["opclass"][0] = int(UopClass.COPY)
    rec["dest"][0] = NO_REG
    with pytest.raises(ValueError, match="COPY"):
        Trace(rec).validate()


def test_validate_rejects_store_with_dest():
    rec = _records()
    rec["opclass"][0] = int(UopClass.STORE)
    rec["dest"][0] = 2
    with pytest.raises(ValueError, match="store"):
        Trace(rec).validate()


def test_validate_rejects_branch_with_dest():
    rec = _records()
    rec["opclass"][0] = int(UopClass.BRANCH)
    with pytest.raises(ValueError, match="branch"):
        Trace(rec).validate()


def test_validate_rejects_bad_register():
    rec = _records()
    rec["src1"][0] = 99
    with pytest.raises(ValueError, match="src1"):
        Trace(rec).validate()


def test_validate_rejects_negative_mem_line():
    rec = _records()
    rec["opclass"][0] = int(UopClass.LOAD)
    rec["mem_line"][0] = -5
    with pytest.raises(ValueError, match="negative"):
        Trace(rec).validate()


def test_stats_mix(ilp_trace):
    s = ilp_trace.stats()
    assert s.n_uops == len(ilp_trace)
    assert 0.0 < s.frac_load < 0.5
    assert 0.0 < s.frac_branch < 0.3
    assert 0.0 <= s.frac_taken <= 1.0
    assert s.n_static_branches > 0
    assert s.working_set_lines > 0


def test_stats_empty_trace():
    s = Trace(np.zeros(0, dtype=TRACE_DTYPE)).stats()
    assert s.n_uops == 0
    assert s.frac_load == 0.0


def test_save_load_roundtrip(tmp_path, ilp_trace):
    path = tmp_path / "t.npz"
    ilp_trace.save(path)
    back = Trace.load(path)
    assert np.array_equal(back.records, ilp_trace.records)
    assert back.name == ilp_trace.name
    assert back.category == ilp_trace.category
    assert back.kind == ilp_trace.kind
    assert back.seed == ilp_trace.seed


def test_static_columns_are_hidden_from_the_collector(feature_trace):
    """The cached per-record columns are tuples of ints and bools, which
    CPython's cyclic collector stops tracking after one collection: a
    loaded workload pool adds nothing to any later full collection."""
    trace = Trace(feature_trace.records.copy())
    cols = trace.columns()
    soa = trace_soa(trace)
    gc.collect()
    for name, col in zip(cols._fields, cols):
        assert len(col) == len(trace)
        assert not gc.is_tracked(col), f"columns().{name}"
    for name in TraceSoA.__slots__:
        assert not gc.is_tracked(getattr(soa, name)), f"trace_soa().{name}"
