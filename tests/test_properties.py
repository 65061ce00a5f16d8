"""Property-based tests (hypothesis) on core data structures and invariants.

These cover the structures whose correctness the whole simulation rests on:
the LRU cache, the physical register free lists, the issue queue's
oldest-first select, the rename table's define/undo symmetry, the fairness
metric's bounds, and — most importantly — end-to-end pipeline invariants
under randomly generated trace profiles.  The parsers behind a listening
port (the fabric's frame decoder, the service's HTTP request reader and
its job-spec parser) must turn any input into a value or their one typed
error.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.backend.issue import IssueQueue
from repro.backend.regfile import PhysRegFile
from repro.config import baseline_config
from repro.core.processor import Processor
from repro.fabric.protocol import _HEADER, FrameDecoder, ProtocolError
from repro.frontend.rename import RenameTable
from repro.isa import NO_REG, NUM_ARCH_REGS, RegClass, Uop, UopClass
from repro.memory.cache import SetAssocCache
from repro.metrics.fairness import fairness
from repro.policies import POLICY_NAMES, make_policy
from repro.service import http as shttp
from repro.service.spec import JobSpec, SpecError
from repro.trace.synthesis import TraceProfile, generate_trace
from tests.conftest import NESTED_JSON

# --------------------------------------------------------------------------- #
# cache                                                                        #
# --------------------------------------------------------------------------- #

@given(
    lines=st.lists(st.integers(min_value=0, max_value=200), min_size=1, max_size=300),
    assoc=st.sampled_from([1, 2, 4, 8]),
)
def test_cache_capacity_invariant(lines, assoc):
    cache = SetAssocCache.from_geometry(num_sets=4, assoc=assoc)
    for line in lines:
        cache.access(line)
        assert cache.occupancy() <= 4 * assoc
    # most recently accessed line is always resident
    assert cache.probe(lines[-1])


@given(lines=st.lists(st.integers(0, 50), min_size=2, max_size=100))
def test_cache_hits_plus_misses_equals_accesses(lines):
    cache = SetAssocCache.from_geometry(num_sets=2, assoc=2)
    for line in lines:
        cache.access(line)
    assert cache.hits + cache.misses == len(lines)


# --------------------------------------------------------------------------- #
# register file                                                                #
# --------------------------------------------------------------------------- #

@given(ops=st.lists(st.booleans(), min_size=1, max_size=200))
def test_regfile_free_list_conservation(ops):
    """Random alloc/free interleavings never lose or duplicate registers."""
    f = PhysRegFile(0, RegClass.INT, 16)
    held: list[int] = []
    for do_alloc in ops:
        if do_alloc and f.can_alloc():
            p = f.alloc()
            assert p not in held
            held.append(p)
        elif held:
            f.free(held.pop())
        assert f.in_use == len(held)
        assert f.in_use + f.free_count == f.capacity


# --------------------------------------------------------------------------- #
# issue queue                                                                  #
# --------------------------------------------------------------------------- #

@given(ages=st.lists(st.integers(0, 10_000), min_size=1, max_size=60, unique=True))
def test_issue_queue_selects_in_age_order(ages):
    iq = IssueQueue(0, capacity=64, num_threads=1)
    for age in ages:
        u = Uop(0, UopClass.INT_ALU)
        u.age = age
        u.cluster = 0
        iq.dispatch(u)
    issued, passed = iq.select(64, lambda u: True)
    assert [u.age for u in issued] == sorted(ages)
    assert passed == []
    assert iq.occupancy == len(ages)  # release happens at issue, by caller


# --------------------------------------------------------------------------- #
# rename table                                                                 #
# --------------------------------------------------------------------------- #

@given(
    steps=st.lists(
        st.tuples(
            st.integers(0, NUM_ARCH_REGS - 1),  # arch reg
            st.integers(0, 1),                  # cluster
            st.integers(0, 63),                 # phys
        ),
        min_size=1,
        max_size=50,
    )
)
def test_rename_define_undo_symmetry(steps):
    """Applying defines then undoing them in reverse restores the table."""
    table = RenameTable()
    before = [table.lookup(a) for a in range(NUM_ARCH_REGS)]
    prevs = [(a, table.define(a, c, p)) for a, c, p in steps]
    for arch, prev in reversed(prevs):
        table.undo_define(arch, prev)
    after = [table.lookup(a) for a in range(NUM_ARCH_REGS)]
    assert before == after


# --------------------------------------------------------------------------- #
# fairness                                                                     #
# --------------------------------------------------------------------------- #

@given(
    mt=st.lists(st.floats(0.01, 10.0), min_size=2, max_size=4),
    st_scale=st.floats(0.1, 10.0),
)
def test_fairness_bounds_and_scale_invariance(mt, st_scale):
    refs = [2.0 * st_scale] * len(mt)
    f = fairness(mt, refs)
    assert 0.0 <= f <= 1.0
    # scaling all MT IPCs equally does not change fairness
    f2 = fairness([m * 3.0 for m in mt], refs)
    assert abs(f - f2) < 1e-9


@given(progress=st.floats(0.01, 1.0))
def test_fairness_one_iff_equal_progress(progress):
    f = fairness([progress, progress], [1.0, 1.0])
    assert abs(f - 1.0) < 1e-12


# --------------------------------------------------------------------------- #
# trace generator                                                              #
# --------------------------------------------------------------------------- #

_profiles = st.builds(
    TraceProfile,
    frac_load=st.floats(0.05, 0.3),
    frac_store=st.floats(0.02, 0.15),
    frac_branch=st.floats(0.03, 0.2),
    frac_fp=st.floats(0.0, 0.8),
    dep_mean_distance=st.floats(1.5, 16.0),
    dep_locality=st.floats(0.1, 0.9),
    working_set_lines=st.integers(16, 5000),
    stride_frac=st.floats(0.0, 1.0),
    load_dep_chain=st.floats(0.0, 0.5),
    branch_bias=st.floats(0.6, 0.99),
    n_blocks=st.integers(4, 64),
    int_regs_used=st.integers(4, 14),
    fp_regs_used=st.integers(4, 14),
)


@given(profile=_profiles, seed=st.integers(0, 2**20))
@settings(max_examples=25, deadline=None)
def test_generated_traces_always_valid(profile, seed):
    trace = generate_trace(profile, seed=seed, n_uops=400)
    trace.validate()
    assert len(trace) == 400
    # determinism
    again = generate_trace(profile, seed=seed, n_uops=400)
    assert np.array_equal(trace.records, again.records)


# --------------------------------------------------------------------------- #
# end-to-end pipeline invariants under random workloads                        #
# --------------------------------------------------------------------------- #

@given(
    profile=_profiles,
    seed=st.integers(0, 2**16),
    policy=st.sampled_from(POLICY_NAMES),
)
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_pipeline_completes_and_drains(profile, seed, policy):
    """Any generated workload, any policy: the machine commits everything
    exactly once and all shared structures drain."""
    traces = [
        generate_trace(profile, seed=seed, n_uops=500),
        generate_trace(profile, seed=seed + 1, n_uops=500),
    ]
    proc = Processor(baseline_config(), make_policy(policy), traces)
    while not proc.all_done() and proc.cycle < 150_000:
        proc.step()
    assert proc.all_done()
    assert proc.stats.committed_per_thread == [500, 500]
    assert proc.mob.occupancy == 0
    for cl in proc.clusters:
        assert cl.iq.occupancy == 0
    for t in proc.threads:
        assert len(t.rob) == 0 and not t.inflight and t.icount == 0
    # no register leaks beyond live architectural mappings
    expected = [[0, 0], [0, 0]]
    for t in proc.threads:
        for arch, m in t.rename_table.live_mappings():
            k = 0 if arch < 16 else 1
            expected[m.cluster][k] += 1
            if m.replica != NO_REG:
                expected[1 - m.cluster][k] += 1
    for c, cl in enumerate(proc.clusters):
        for k in (0, 1):
            assert cl.regs[k].in_use == expected[c][k]


# --------------------------------------------------------------------------- #
# parsers behind a listening port                                             #
# --------------------------------------------------------------------------- #

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.text(max_size=8), kids, max_size=4),
    max_leaves=12,
)


def _frame(body: bytes) -> bytes:
    return _HEADER.pack(len(body)) + body


_frame_bodies = st.binary(max_size=64) | _json_values.map(
    lambda v: json.dumps(v).encode()
)
_frame_streams = st.binary(max_size=256) | st.lists(
    _frame_bodies.map(_frame), max_size=4
).map(b"".join)


@given(data=_frame_streams, cuts=st.lists(st.integers(0, 512), max_size=6))
@settings(max_examples=50)
@example(data=_frame(NESTED_JSON), cuts=[])
@example(data=_frame(NESTED_JSON), cuts=[4, 100_000])
def test_frame_decoder_yields_typed_messages_or_protocol_error(data, cuts):
    """Any bytes, split anywhere: ``FrameDecoder.feed`` yields typed dict
    messages or raises :class:`ProtocolError`, and nothing else."""
    decoder = FrameDecoder()
    bounds = sorted({0, len(data), *(min(c, len(data)) for c in cuts)})
    try:
        for lo, hi in zip(bounds, bounds[1:]):
            for msg in decoder.feed(data[lo:hi]):
                assert isinstance(msg, dict) and "type" in msg
    except ProtocolError:
        pass


def _read_request(data: bytes):
    async def read():
        reader = asyncio.StreamReader()  # asyncio's default 64 KiB limit
        reader.feed_data(data)
        reader.feed_eof()
        return await shttp.read_request(reader)

    return asyncio.run(read())


_request_heads = st.sampled_from(
    [b"", b"GET / HTTP/1.1\r\n", b"POST /v1/sweeps HTTP/1.1\r\n"]
)


@given(head=_request_heads, data=st.binary(max_size=256))
@settings(max_examples=50)
@example(head=b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n", data=b"\r\n")
@example(head=b"GET / HTTP/1.1\r\n", data=b"X-Big: " + b"a" * 70_000 + b"\r\n\r\n")
@example(
    head=b"POST /v1/sweeps HTTP/1.1\r\n",
    data=b"Content-Length: %d\r\n\r\n%s" % (len(NESTED_JSON), NESTED_JSON),
)
def test_read_request_returns_request_or_protocol_error(head, data):
    """Any bytes: ``read_request`` returns a :class:`Request` (whose JSON
    body parses or raises), returns None, or raises
    :class:`ProtocolError`, and nothing else."""
    try:
        request = _read_request(head + data)
        if request is not None:
            assert isinstance(request, shttp.Request)
            request.json()
    except shttp.ProtocolError:
        pass


_spec_fields = st.sampled_from(
    ["scale", "policy", "policies", "category", "categories", "index",
     "iq_entries", "regs", "unbounded_regs", "unbounded_rob", "stop"]
)


@settings(max_examples=50)
@given(
    kind=st.sampled_from(["run", "sweep"]),
    data=_json_values
    | st.dictionaries(_spec_fields | st.text(max_size=4), _json_values, max_size=6),
)
def test_job_spec_parser_returns_spec_or_spec_error(kind, data):
    """Any JSON value: ``JobSpec.from_json`` returns a spec or raises
    :class:`SpecError`, and nothing else."""
    try:
        spec = JobSpec.from_json(kind, data)
    except SpecError:
        return
    assert isinstance(spec, JobSpec)
