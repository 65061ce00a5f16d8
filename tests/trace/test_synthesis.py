"""Synthetic trace generator tests."""

import numpy as np
import pytest

from repro.isa import NO_REG, NUM_ARCH_INT, UopClass
from repro.trace.synthesis import (
    SyntheticProgram,
    TraceProfile,
    WrongPathSource,
    generate_trace,
)


def test_determinism(ilp_profile):
    a = generate_trace(ilp_profile, seed=42, n_uops=2000)
    b = generate_trace(ilp_profile, seed=42, n_uops=2000)
    assert np.array_equal(a.records, b.records)


def test_different_seeds_differ(ilp_profile):
    a = generate_trace(ilp_profile, seed=1, n_uops=2000)
    b = generate_trace(ilp_profile, seed=2, n_uops=2000)
    assert not np.array_equal(a.records, b.records)


def test_generated_traces_validate(ilp_profile, mem_profile, fp_profile):
    for prof, seed in [(ilp_profile, 1), (mem_profile, 2), (fp_profile, 3)]:
        generate_trace(prof, seed=seed, n_uops=3000).validate()


def test_mix_close_to_profile(ilp_profile):
    # The dynamic walk concentrates on hot loops, so the dynamic mix can
    # drift from the template sampling probabilities; it must stay in a
    # believable band around the profile.
    t = generate_trace(ilp_profile, seed=7, n_uops=20_000)
    s = t.stats()
    assert s.frac_load == pytest.approx(ilp_profile.frac_load, abs=0.15)
    assert s.frac_store == pytest.approx(ilp_profile.frac_store, abs=0.08)
    assert s.frac_branch == pytest.approx(ilp_profile.frac_branch, abs=0.08)
    assert s.frac_load > 0.05 and s.frac_branch > 0.02


def test_fp_mix(fp_profile):
    t = generate_trace(fp_profile, seed=7, n_uops=20_000)
    s = t.stats()
    # frac_fp applies to compute uops only, so the stream share is lower
    assert 0.2 < s.frac_fp < fp_profile.frac_fp


def test_working_set_bounded(ilp_profile):
    t = generate_trace(ilp_profile, seed=7, n_uops=20_000)
    mem = t.records["mem_line"][
        (t.records["opclass"] == int(UopClass.LOAD))
        | (t.records["opclass"] == int(UopClass.STORE))
    ]
    assert mem.max() < ilp_profile.working_set_lines


def test_branch_bias_reflected():
    prof = TraceProfile(name="b", branch_bias=0.95, frac_branch=0.2)
    t = generate_trace(prof, seed=5, n_uops=20_000)
    assert t.stats().frac_taken > 0.7


def test_pcs_repeat_loopy_program(ilp_profile):
    t = generate_trace(ilp_profile, seed=9, n_uops=10_000)
    distinct = len(np.unique(t.records["pc"]))
    assert distinct < len(t) / 4  # loops revisit static code


def test_int_only_profile_has_no_fp_regs():
    prof = TraceProfile(name="int", frac_fp=0.0, int_regs_used=12)
    t = generate_trace(prof, seed=3, n_uops=5000)
    for field in ("dest", "src1", "src2"):
        vals = t.records[field]
        assert (vals[vals != NO_REG] < NUM_ARCH_INT).all()


def test_invariant_registers_never_written():
    prof = TraceProfile(name="inv", int_regs_used=10, fp_regs_used=10)
    t = generate_trace(prof, seed=3, n_uops=8000)
    dests = t.records["dest"]
    dests = dests[dests != NO_REG]
    int_dests = dests[dests < NUM_ARCH_INT]
    assert int_dests.max() < prof.int_regs_used


def test_profile_validation_rejects_bad_fractions():
    with pytest.raises(ValueError):
        TraceProfile(frac_load=1.5).validate()
    with pytest.raises(ValueError):
        TraceProfile(frac_load=0.5, frac_store=0.3, frac_branch=0.2).validate()
    with pytest.raises(ValueError):
        TraceProfile(int_regs_used=0).validate()
    with pytest.raises(ValueError):
        TraceProfile(n_blocks=1).validate()
    with pytest.raises(ValueError):
        TraceProfile(dep_mean_distance=0.5).validate()
    with pytest.raises(ValueError):
        TraceProfile(stride_reuse=0).validate()


def test_program_reusable(ilp_profile):
    prog = SyntheticProgram(ilp_profile, seed=4)
    assert len(prog.blocks) == ilp_profile.n_blocks
    a = prog.emit(1000)
    b = prog.emit(1000, seed=99)
    assert len(a) == len(b) == 1000
    assert not np.array_equal(a, b)  # different walk seeds


def test_scaled_memory():
    prof = TraceProfile(working_set_lines=100)
    big = prof.scaled_memory(10.0)
    assert big.working_set_lines == 1000
    assert prof.working_set_lines == 100  # frozen original untouched


class TestWrongPathSource:
    def test_rejects_empty(self):
        import repro.trace.trace as tt

        empty = tt.Trace(np.zeros(0, dtype=tt.TRACE_DTYPE))
        with pytest.raises(ValueError):
            WrongPathSource(empty)

    def test_distinct_pc_space(self, ilp_trace):
        src = WrongPathSource(ilp_trace)
        for _ in range(50):
            rec = src.next_record()
            assert rec[4] & (1 << 40)  # wrong-path PC bit

    def test_peek_matches_next(self, ilp_trace):
        src = WrongPathSource(ilp_trace)
        for _ in range(20):
            pc = src.peek_pc()
            assert src.next_record()[4] == pc

    def test_mix_resembles_trace(self, ilp_trace):
        src = WrongPathSource(ilp_trace)
        classes = [src.next_record()[0] for _ in range(2000)]
        frac_load = classes.count(int(UopClass.LOAD)) / len(classes)
        assert frac_load == pytest.approx(ilp_trace.stats().frac_load, abs=0.08)


def test_iter_uop_mix(ilp_trace):
    from repro.trace.synthesis import iter_uop_mix

    mix = dict(iter_uop_mix(ilp_trace.records))
    assert sum(mix.values()) == pytest.approx(1.0)
    assert all(0.0 < frac <= 1.0 for frac in mix.values())
    assert UopClass.LOAD in mix and UopClass.BRANCH in mix


def test_iter_uop_mix_empty():
    import numpy as np

    from repro.trace.synthesis import iter_uop_mix
    from repro.trace.trace import TRACE_DTYPE

    assert list(iter_uop_mix(np.zeros(0, dtype=TRACE_DTYPE))) == []
