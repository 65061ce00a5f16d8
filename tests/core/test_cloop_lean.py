"""Kernel-owned ``cloop`` machines are built lean, and prewarm in C.

A ``cloop`` machine decides at construction whether the C kernel owns
it.  One the kernel owns keeps only the counters the kernel exports:
its caches, TLBs and trace cache hold no per-set lists, its threads no
trace columns, and the ILP prewarm runs through the kernel's own L2.
These tests pin that:

* construction adds a few dozen collector-tracked objects, not the
  thousands of per-set lists of the Python caches;
* a kernel run leaves the traces' Python-engine columns unbuilt;
* reading a kernel-owned cache's contents raises instead of answering
  from lists nothing updates, while a machine that falls back (no
  kernel, telemetry) keeps and reads its Python caches;
* a prewarm that overflows L2 sets evicts in the C kernel exactly as
  the Python LRU does.
"""

from __future__ import annotations

import dataclasses
import gc

import numpy as np
import pytest

from repro.config import CacheConfig
from repro.core.backends import make_processor
from repro.core.simulator import run_simulation
from repro.isa import UopClass
from repro.policies import make_policy
from repro.telemetry import Telemetry, TelemetryConfig
from repro.trace.synthesis import generate_trace


def _fresh_traces(profile, seed):
    """Two traces no other test has touched (no columns built yet)."""
    return [
        generate_trace(profile, seed=seed + i, n_uops=2000, kind="ilp")
        for i in range(2)
    ]


def _machine(config, traces, policy="icount", **kw):
    return make_processor("cloop", config, make_policy(policy), traces, **kw)


def test_kernel_owned_machine_is_lean(config, ilp_profile, c_kernel):
    """Construction plus prewarm adds under 500 collector-tracked objects
    (the Python caches alone hold over 9,000 per-set lists)."""
    warm = _machine(config, _fresh_traces(ilp_profile, 901))
    warm.prewarm_caches()  # first-call imports and caches happen here
    traces = _fresh_traces(ilp_profile, 911)
    gc.collect()
    before = len(gc.get_objects())
    proc = _machine(config, traces)
    proc.prewarm_caches()
    added = len(gc.get_objects()) - before
    assert added < 500, added
    assert proc.kernel_active(), proc._cl_error
    assert not proc.python_resident


def test_kernel_run_builds_no_trace_columns(config, ilp_profile, c_kernel):
    traces = _fresh_traces(ilp_profile, 921)
    res = run_simulation(
        config, "icount", traces, backend="cloop", prewarm_caches=True,
        max_cycles=20_000,
    )
    assert res.committed > 0
    for trace in traces:
        assert trace._columns is None
        assert not hasattr(trace, "_soa")


@pytest.fixture(params=["kernel", "no_kernel", "telemetry"])
def machine(request, config, ilp_trace, mem_trace, monkeypatch):
    """A prewarmed ``cloop`` machine: kernel-owned, or falling back."""
    kw = {}
    if request.param == "kernel":
        request.getfixturevalue("c_kernel")
    elif request.param == "no_kernel":
        monkeypatch.setenv("REPRO_NO_CKERNEL", "1")
    else:
        kw["telemetry"] = Telemetry(TelemetryConfig(sample_interval=512))
    proc = _machine(config, [ilp_trace, mem_trace], **kw)
    proc.prewarm_caches()
    return request.param, proc


def test_cache_contents_readable_only_on_python_machines(machine):
    """Only a machine that runs in Python keeps cache contents; on a
    kernel-owned one, every read of them raises."""
    mode, proc = machine
    proc.run_cycles(2_000)
    stores = [
        proc.mem.l1, proc.mem.l2, proc.mem.dtlb._store,
        proc.tc._itlb._store, proc.tc._lines,
    ]
    rec = proc.threads[0].trace.records  # thread 0's ILP lines: prewarmed
    is_mem = np.isin(rec["opclass"], (int(UopClass.LOAD), int(UopClass.STORE)))
    line = int(rec["mem_line"][is_mem][0])
    assert proc.kernel_active() == (mode == "kernel")
    if mode == "kernel":
        with pytest.raises(RuntimeError, match="L2 contents live in the C kernel"):
            proc.mem.l2.probe(line)
        for store in stores:
            with pytest.raises(RuntimeError, match="C kernel"):
                store.occupancy()
            with pytest.raises(RuntimeError, match="C kernel"):
                store._sets  # noqa: B018
        assert proc.mem.l2.accesses > 0  # the counters still come back
    else:
        assert proc.mem.l2.probe(line)
        assert all(store.occupancy() > 0 for store in stores)
        assert all(t.cols.pc for t in proc.threads)


def _tiny_l2(config):
    """L1 4 KiB 2-way, L2 8 KiB 4-way (32 sets of 4 lines)."""
    return dataclasses.replace(
        config,
        memory=dataclasses.replace(
            config.memory,
            l1=CacheConfig(size_bytes=4 * 1024, assoc=2, hit_latency=1),
            l2=CacheConfig(size_bytes=8 * 1024, assoc=4, hit_latency=12),
        ),
    )


@pytest.mark.parametrize("policy", ["icount", "cdprf"])
def test_prewarm_eviction_matches_vectorized(config, ilp_trace, ilp_trace_b,
                                             policy, c_kernel):
    """Two ILP threads' prewarm lines overflow the sets of a tiny L2; the
    kernel's prewarm must leave the same lines, in the same LRU order, as
    the Python one, and zero the same counters, so every stats field
    matches ``vectorized`` (no warmup phase: the measured region starts
    right after the prewarm)."""
    cfg = _tiny_l2(config)
    traces = [ilp_trace, ilp_trace_b]
    vec = make_processor("vectorized", cfg, make_policy(policy), traces)
    lines = vec._prewarm_lines()
    per_set = np.bincount(lines % vec.mem.l2.num_sets)
    assert per_set.max() > vec.mem.l2.assoc  # some set overflows
    vec.prewarm_caches()
    assert vec.mem.l2.occupancy() < len(np.unique(lines))  # lines evicted

    results = {
        backend: run_simulation(
            cfg, make_policy(policy), traces, backend=backend,
            prewarm_caches=True, max_cycles=60_000,
        )
        for backend in ("vectorized", "cloop")
    }
    vec_res, cl_res = results["vectorized"], results["cloop"]
    assert cl_res.cycles == vec_res.cycles
    assert cl_res.committed_per_thread == vec_res.committed_per_thread
    assert cl_res.stats == vec_res.stats
