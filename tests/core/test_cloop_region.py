"""Region API of the whole-loop compiled backend (``cloop``).

The C kernel runs *bounded regions* and re-enters Python only at
observable-event boundaries; :meth:`CloopProcessor.run_cycles` is the
public face of that contract.  These tests pin the contract itself —
typed exit reasons, exact cycle bounds, exit tallies, observable-state
export at every boundary, sticky mid-run fallback — independent of the
cross-backend identity suite (which pins *what* the regions compute).

Everything here must hold with and without the toolchain: the pure
fallback implements the same region API through the inherited
``vectorized`` engine, so each test also runs under
``REPRO_NO_CKERNEL``.  The kernel half is skipped, with the reason,
where cffi or a C compiler is missing.
"""

from __future__ import annotations

import copy
import dataclasses

import pytest

import repro.core.simulator as simulator
from repro.core.backends import make_processor
from repro.core.cloop import REGION_DONE, REGION_LIMIT, CloopProcessor
from repro.policies import CSSPPolicy, make_policy
from repro.telemetry import Telemetry, TelemetryConfig

#: the schemes whose policy hooks the kernel runs itself
HOOKED_POLICIES = ["stall", "flush+", "cssprf", "cisprf", "cdprf"]


def _proc(config, traces, policy="icount", **kw):
    return make_processor("cloop", config, make_policy(policy), list(traces), **kw)


@pytest.fixture(params=["kernel", "fallback"])
def mode(request, monkeypatch):
    """Run each test twice: resident C kernel and pure fallback."""
    if request.param == "kernel":
        request.getfixturevalue("c_kernel")
    else:
        monkeypatch.setenv("REPRO_NO_CKERNEL", "1")
    return request.param


def test_run_cycles_limit(config, ilp_trace, mem_trace, mode):
    """A bounded region advances exactly ``n`` cycles and reports it."""
    proc = _proc(config, [ilp_trace, mem_trace])
    reason = proc.run_cycles(50)
    assert reason == REGION_LIMIT
    assert proc.cycle == 50
    assert proc.stats.cycles == 50
    assert proc.region_exits[REGION_LIMIT] == 1
    assert proc.region_exits[REGION_DONE] == 0


def test_run_cycles_done(config, ilp_trace, mem_trace, mode):
    """A generous region with a stop condition exits ``done`` early."""
    proc = _proc(config, [ilp_trace, mem_trace])
    reason = proc.run_cycles(200_000, stop="first_done")
    assert reason == REGION_DONE
    assert proc.cycle < 200_000
    assert proc.finished_count > 0
    assert proc.region_exits[REGION_DONE] == 1


def test_run_cycles_rejects_unknown_stop(config, ilp_trace, mem_trace, mode):
    proc = _proc(config, [ilp_trace, mem_trace])
    with pytest.raises(ValueError):
        proc.run_cycles(10, stop="until_bored")


def test_chunked_regions_identical_to_one_shot(config, ilp_trace, mem_trace, mode):
    """Driving the machine in many small regions is bit-identical to one
    big region — the export/resume boundary is lossless for every
    observable counter."""
    one = _proc(config, [ilp_trace, mem_trace])
    one.run_loop(60_000)
    chunked = _proc(config, [ilp_trace, mem_trace])
    while chunked.finished_count == 0 and chunked.cycle < 60_000:
        chunked.run_cycles(257, stop="first_done")
    assert chunked.finalize_stats().as_dict() == one.finalize_stats().as_dict()
    assert chunked.region_exits[REGION_DONE] == 1
    assert chunked.region_exits[REGION_LIMIT] > 1


def test_observable_state_exported_between_regions(config, ilp_trace, mem_trace,
                                                   mode):
    """Between regions, arbitrary Python may inspect the machine: the
    counters the figures read advance monotonically at each boundary."""
    proc = _proc(config, [ilp_trace, mem_trace])
    last_committed = -1
    for _ in range(4):
        proc.run_cycles(300)
        assert proc.stats.committed >= last_committed
        last_committed = proc.stats.committed
        assert proc.stats.cycles == proc.cycle
    assert last_committed > 0


def test_mid_run_fallback_is_sticky(config, ilp_trace, mem_trace, monkeypatch):
    """A machine that already ran on the pure engine must never adopt the
    C kernel mid-flight (one instance never mixes machine state)."""
    monkeypatch.setenv("REPRO_NO_CKERNEL", "1")
    proc = _proc(config, [ilp_trace, mem_trace])
    proc.run_cycles(100)
    monkeypatch.delenv("REPRO_NO_CKERNEL")
    assert not proc.kernel_active()  # sticky: mid-run state is Python's
    proc.run_cycles(100)
    assert proc.cycle == 200


def test_fallback_reports_reason(config, ilp_trace, mem_trace, monkeypatch):
    monkeypatch.setenv("REPRO_NO_CKERNEL", "1")
    proc = _proc(config, [ilp_trace, mem_trace])
    proc.run_cycles(10)
    assert proc._cl is None
    assert proc._cl_error is not None
    assert "REPRO_NO_CKERNEL" in proc._cl_error


def test_non_c_policy_delegates(config, ilp_trace, mem_trace):
    """Policies outside the C table run through the inherited chain; the
    region API still honours its contract there."""
    proc = _proc(config, [ilp_trace, mem_trace], policy="dcra")
    assert isinstance(proc, CloopProcessor)
    assert not proc.kernel_active()
    reason = proc.run_cycles(64)
    assert reason == REGION_LIMIT
    assert proc.cycle == 64
    assert proc._cl is None


def test_region_exit_tallies_accumulate(config, ilp_trace, mem_trace, mode):
    proc = _proc(config, [ilp_trace, mem_trace])
    for _ in range(3):
        proc.run_cycles(100)
    proc.run_cycles(500_000, stop="all_done")
    assert proc.region_exits[REGION_LIMIT] == 3
    assert proc.region_exits[REGION_DONE] == 1
    assert proc.region_exits["watchdog"] == 0


def test_kernel_active_reflects_mode(config, ilp_trace, mem_trace, mode):
    proc = _proc(config, [ilp_trace, mem_trace])
    active = proc.kernel_active()
    if mode == "kernel":
        assert active
        assert proc._cl is not None
    else:
        assert proc._cl is None


class _CSSPVariant(CSSPPolicy):
    """An ablation subclass: same admission, but not the C table's type."""


@pytest.mark.parametrize("case", ["subclass", "dcra", "telemetry"])
def test_envelope_rejection_reports_reason(config, ilp_trace, mem_trace, case):
    """Outside the C envelope ``kernel_active()`` is False and
    ``_cl_error`` says why."""
    policy, tel, expect = {
        "subclass": (_CSSPVariant(), None, "_CSSPVariant"),
        "dcra": (make_policy("dcra"), None, "DCRAPolicy"),
        "telemetry": (
            make_policy("icount"),
            Telemetry(TelemetryConfig(sample_interval=512)),
            "telemetry",
        ),
    }[case]
    proc = make_processor(
        "cloop", config, policy, [ilp_trace, mem_trace], telemetry=tel
    )
    assert not proc.kernel_active()
    assert proc._cl is None
    assert expect in proc._cl_error


def _hooked_policy(name):
    # a short CDPRF interval puts several interval ends inside each run
    return make_policy(name, interval=256) if name == "cdprf" else make_policy(name)


def _policy_view(proc):
    """Everything a policy and its thread gates expose between regions,
    with every stats field (``as_dict`` leaves out Stall's gated-cycle
    count)."""
    policy = proc.policy
    view = {
        "stats": dataclasses.asdict(proc.stats),
        "rr": policy._rr,
        "gated": [t.gated for t in proc.threads],
        "flushed": [t.flushed for t in proc.threads],
    }
    for name in ("reg_usage", "threshold", "rfoc", "starvation", "_starved_now"):
        if hasattr(policy, name):
            view[name] = copy.deepcopy(getattr(policy, name))
    return view


def _pair(config, traces, policy):
    procs = [
        make_processor(b, config, _hooked_policy(policy), list(traces))
        for b in ("cloop", "vectorized")
    ]
    for proc in procs:
        proc.prewarm_caches()
    assert procs[0].kernel_active(), procs[0]._cl_error
    return procs


@pytest.mark.parametrize("policy", HOOKED_POLICIES)
def test_policy_state_matches_vectorized_between_regions(
    config, mem_trace, mem_trace_b, policy, c_kernel
):
    """After every chunked region the kernel's exported policy state and
    thread gates equal the ``vectorized`` engine's at the same cycle."""
    cl, vec = _pair(config, [mem_trace, mem_trace_b], policy)
    while cl.finished_count == 0 and cl.cycle < 60_000:
        cl.run_cycles(257, stop="cycles")
        vec.run_loop(cl.cycle, stop="cycles")
        assert vec.cycle == cl.cycle
        assert _policy_view(cl) == _policy_view(vec), cl.cycle


@pytest.mark.parametrize("policy", HOOKED_POLICIES)
def test_policy_state_matches_vectorized_after_ff_run(
    config, ilp_trace, mem_trace, policy, c_kernel
):
    """One ``run_loop`` to the stop condition: the same end state."""
    cl, vec = _pair(config, [ilp_trace, mem_trace], policy)
    for proc in (cl, vec):
        proc.run_loop(60_000)
    for proc in (cl, vec):
        proc.finalize_stats()
    assert cl.cycle == vec.cycle
    assert _policy_view(cl) == _policy_view(vec)


def test_released_machine_refuses_to_run(config, ilp_trace, mem_trace,
                                         monkeypatch, mode):
    """``run_simulation`` releases its machine once it has the stats; the
    machine then refuses to run instead of resuming on empty state."""
    seen = []
    init = CloopProcessor.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        seen.append(self)

    monkeypatch.setattr(CloopProcessor, "__init__", spy)
    res = simulator.run_simulation(
        config, "cdprf", [ilp_trace, mem_trace], backend="cloop",
        max_cycles=5_000, stop="cycles",
    )
    (proc,) = seen
    assert res.cycles == proc.cycle == 5_000
    assert proc.region_exits[REGION_LIMIT] == (mode == "kernel")
    assert proc._cl is None
    assert not proc.kernel_active()
    for run in (
        lambda: proc.run_loop(10_000, stop="cycles"),
        proc.step,
        lambda: proc.run_cycles(10),
    ):
        with pytest.raises(RuntimeError, match="released"):
            run()
    assert proc.cycle == 5_000
