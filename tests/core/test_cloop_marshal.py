"""Adoption of the resident C machine by the ``cloop`` backend.

A fresh machine hands its static trace columns to the C kernel as one
``(15, n)`` int64 block per thread, built in bulk from the trace
records (:func:`repro.core.cloop._trace_block`).  These tests pin three
things the identity suites cannot see on their own:

* the block holds exactly the values the Python engines read one
  record at a time (the trace columns, the thread's memory lines,
  ``TraceSoA.plain``, the latency table);
* every one of the paper's ten schemes really adopts the kernel — a
  silent fallback would pass the identity suites too, only slower;
* a broken block fails the run instead of falling back.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import repro.core.cloop as cloop
from repro.core.backends import make_processor
from repro.core.simulator import run_simulation
from repro.core.soa import thread_mem_lines, trace_soa
from repro.isa import NUM_ARCH_INT
from repro.isa.uops import PORT_CLASS_TABLE
from repro.policies import make_policy

#: the paper's ten schemes, all in the C policy table
C_TABLE_POLICIES = [
    "icount", "cisp", "cssp", "cspsp", "pc",
    "stall", "flush+", "cssprf", "cisprf", "cdprf",
]


def _record_rows(trace, mem_offset, latency):
    """The block's 15 rows built one record at a time, the way the
    reference interpreter derives each value from a uop."""
    c = trace.columns()
    plain = trace_soa(trace).plain
    n = len(plain)
    next_slow = [0] * n
    upcoming = n
    for i in range(n - 1, -1, -1):
        if not plain[i]:
            upcoming = i
        next_slow[i] = upcoming
    return [
        c.opclass, c.dest, c.src1, c.src2, c.pc, c.taken,
        thread_mem_lines(trace, mem_offset), c.indirect, c.target,
        c.complex_op, plain,
        [PORT_CLASS_TABLE[op] for op in c.opclass],
        [int(d >= NUM_ARCH_INT) for d in c.dest],
        [latency[op] for op in c.opclass],
        next_slow,
    ]


def test_trace_block_matches_slot_columns(config, feature_trace):
    """Row by row, for both threads and two latency tables, the bulk block
    equals the values built one record at a time."""
    rec = feature_trace.records
    assert (rec["opclass"] == cloop._BRANCH).any()
    assert rec["indirect"].any() and rec["complex_op"].any()
    slow_units = dataclasses.replace(
        config, int_latency=2, fp_latency=6, branch_latency=3, agu_latency=2
    )
    tables = []
    for cfg in (config, slow_units):
        proc = make_processor(
            "cloop", cfg, make_policy("icount"), [feature_trace, feature_trace]
        )
        tables.append(proc._latency)
        for tid, t in enumerate(proc.threads):
            block = cloop._trace_block(t.trace, t.mem_offset, proc._latency)
            rows = _record_rows(t.trace, t.mem_offset, proc._latency)
            assert block.shape == (len(rows), t.n_records)
            for i, row in enumerate(rows):
                assert block[i].tolist() == [int(x) for x in row], (tid, i)
    assert tables[0] != tables[1]


@pytest.mark.parametrize("machine", ["config", "unbounded_config"])
@pytest.mark.parametrize("policy", C_TABLE_POLICIES)
def test_c_table_policies_adopt_kernel(request, machine, policy, ilp_trace,
                                       mem_trace, c_kernel):
    proc = make_processor(
        "cloop",
        request.getfixturevalue(machine),
        make_policy(policy),
        [ilp_trace, mem_trace],
    )
    proc.prewarm_caches()  # the L2 seed then carries lines
    assert proc.kernel_active()
    assert proc._cl_error is None


@pytest.mark.parametrize("breakage", ["dtype", "shape", "layout"])
def test_broken_block_fails_the_run(config, ilp_trace, mem_trace, monkeypatch,
                                    breakage, c_kernel):
    """A marshal bug must surface, not silently run the Python engine."""
    build = cloop._trace_block
    broken = {
        "dtype": lambda b: b.astype(np.int32),
        "shape": lambda b: b[:-1],
        "layout": np.asfortranarray,
    }[breakage]
    monkeypatch.setattr(cloop, "_trace_block", lambda *a: broken(build(*a)))
    with pytest.raises(ValueError, match="record block"):
        run_simulation(
            config, "icount", [ilp_trace, mem_trace], backend="cloop",
            max_cycles=1_000,
        )
