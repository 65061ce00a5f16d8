"""Adoption of the resident C machine by the ``cloop`` backend.

A fresh machine hands its static trace columns to the C kernel as one
``(15, n)`` int64 block per thread, built in bulk from the trace
records (:func:`repro.core.cloop._trace_block`).  These tests pin three
things the identity suites cannot see on their own:

* the block holds exactly the values of the slot engine's per-thread
  columns (``_slot_cols``), which the Python fallback still runs on;
* every C-table policy really adopts the kernel — a silent fallback
  would pass the identity suites too, only slower;
* a broken block fails the run instead of falling back.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import repro.core.cloop as cloop
from repro.core.backends import make_processor
from repro.core.simulator import run_simulation
from repro.policies import make_policy

C_TABLE_POLICIES = ["icount", "cisp", "cssp", "cspsp", "pc"]


def test_trace_block_matches_slot_columns(config, feature_trace):
    """Row by row, for both threads and two latency tables, the bulk block
    equals the per-record list columns converted one value at a time
    (the marshal the block replaced)."""
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
            cols = proc._slot_cols[tid]
            assert block.shape == (len(cols), t.n_records)
            for i, col in enumerate(cols):
                assert block[i].tolist() == [int(x) for x in col], (tid, i)
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
