"""Cross-backend bit-identity: every engine vs the ``reference`` oracle.

The fast engines re-implement the cycle loop — ``vectorized`` as one
flattened function over structure-of-arrays trace columns
(:mod:`repro.core.vectorized`), ``cloop`` as the whole loop in one
resident C kernel built on demand with cffi (:mod:`repro.core.cloop`),
which runs on ``vectorized`` outside its envelope or without the
toolchain.  Every engine steps every cycle, and their shared contract
is that *nothing observable changes*: every stats counter, every
telemetry artifact byte, under every policy.  These tests are the gate
on that contract.

Every test below parametrizes over the registered non-reference
backends, so registering a new engine in :mod:`repro.core.backends`
automatically subjects it to the whole gate.  Reference runs are
memoized per scenario (they are the slow half of every comparison and
identical across the backends being checked).
"""

from __future__ import annotations

import pytest

from repro.core.backends import (
    BACKENDS,
    OPTIONAL_BACKENDS,
    make_processor,
    resolve_backend,
)
from repro.core.simulator import run_simulation
from repro.policies import POLICY_NAMES, make_policy
from repro.policies.icount import IcountPolicy
from repro.telemetry import Telemetry, TelemetryConfig

#: Every registered engine that must match the oracle.
ALT_BACKENDS = [b for b in BACKENDS if b != "reference"]

#: Reference results memoized per scenario tag (traces/config are
#: session-scoped fixtures, so a tag fully determines the run).
_ref_memo: dict[str, object] = {}


def _policy(name):
    if isinstance(name, type):  # a policy class outside the registry
        return name()
    # quick-scale adaptation interval so CDPRF re-partitions in short runs
    return make_policy(name, interval=1024) if name == "cdprf" else make_policy(name)


def _run(config, policy_name, traces, backend, telemetry=None, **kw):
    kw.setdefault("max_cycles", 60_000)
    kw.setdefault("warmup_uops", 300)
    kw.setdefault("prewarm_caches", True)
    return run_simulation(
        config,
        _policy(policy_name),
        list(traces),
        telemetry=telemetry,
        backend=backend,
        **kw,
    )


def _ref(tag, config, policy_name, traces, **kw):
    got = _ref_memo.get(tag)
    if got is None:
        got = _ref_memo[tag] = _run(config, policy_name, traces, "reference", **kw)
    return got


def _assert_identical(ref, got):
    assert got.cycles == ref.cycles
    assert got.committed == ref.committed
    assert got.committed_per_thread == ref.committed_per_thread
    assert got.ipc == ref.ipc
    assert got.stats == ref.stats


#: ids of the per-policy cases below, ``<policy>-step``: stable names
#: that test selections and CI history refer to
_STEP_IDS = [f"{p}-step" for p in POLICY_NAMES]


@pytest.mark.parametrize("backend", ALT_BACKENDS)
@pytest.mark.parametrize("policy", POLICY_NAMES, ids=_STEP_IDS)
def test_bit_identical_stats(config, policy, backend, ilp_trace, mem_trace):
    """Every policy, every engine: identical full stats."""
    traces = [ilp_trace, mem_trace]
    ref = _ref(f"stats|{policy}", config, policy, traces)
    got = _run(config, policy, traces, backend)
    _assert_identical(ref, got)


@pytest.mark.parametrize("policy", POLICY_NAMES, ids=_STEP_IDS)
def test_bit_identical_telemetry(config, policy, mem_trace, ilp_trace_b, tmp_path):
    """Every policy, telemetry attached: identical stats AND byte-identical
    telemetry exports (interval samples, event traces)."""
    traces = [mem_trace, ilp_trace_b]
    out = {}
    results = {}
    for backend in ("reference", "vectorized"):
        tel = Telemetry(TelemetryConfig(sample_interval=512))
        results[backend] = _run(config, policy, traces, backend, telemetry=tel)
        out[backend] = tel.export(tmp_path / backend, meta={"run": "backend-identity"})
    _assert_identical(results["reference"], results["vectorized"])
    assert out["vectorized"].keys() == out["reference"].keys()
    for name, path in out["vectorized"].items():
        assert path.read_bytes() == out["reference"][name].read_bytes(), (
            f"{name} telemetry export differs between backends"
        )


@pytest.mark.parametrize("backend", [b for b in ALT_BACKENDS if b != "vectorized"])
def test_telemetry_delegation_identical(config, backend, mem_trace, ilp_trace_b,
                                        tmp_path):
    """``cloop`` serves telemetry runs through its envelope seam
    (delegating to the flattened engine); the artifacts must still be
    byte-identical to the oracle's."""
    traces = [mem_trace, ilp_trace_b]
    out = {}
    results = {}
    for b in ("reference", backend):
        tel = Telemetry(TelemetryConfig(sample_interval=512))
        results[b] = _run(config, "icount", traces, b, telemetry=tel)
        out[b] = tel.export(tmp_path / b, meta={"run": "backend-identity"})
    _assert_identical(results["reference"], results[backend])
    assert out[backend].keys() == out["reference"].keys()
    for name, path in out[backend].items():
        assert path.read_bytes() == out["reference"][name].read_bytes(), (
            f"{name} telemetry export differs between backends"
        )


@pytest.mark.parametrize("backend", ALT_BACKENDS)
@pytest.mark.parametrize("policy", ["icount", "flush+", "cdprf"])
def test_identical_with_indirect_and_mrom(config, policy, backend, feature_trace,
                                          mem_trace):
    """Fetch slow paths (indirect predictor, MROM serialization) and the
    squash-heavy wrong-path machinery stay identical."""
    traces = [feature_trace, mem_trace]
    ref = _ref(f"feat|{policy}", config, policy, traces)
    got = _run(config, policy, traces, backend)
    _assert_identical(ref, got)


@pytest.mark.parametrize("backend", ALT_BACKENDS)
@pytest.mark.parametrize("stop", ["first_done", "all_done", "cycles"])
def test_identical_across_stop_modes(config, stop, backend, ilp_trace, ilp_trace_b):
    kw = {"stop": stop}
    if stop == "cycles":
        kw["max_cycles"] = 5_000
    traces = [ilp_trace, ilp_trace_b]
    ref = _ref(f"stop|{stop}", config, "stall", traces, **kw)
    got = _run(config, "stall", traces, backend, **kw)
    _assert_identical(ref, got)


@pytest.mark.parametrize("backend", ALT_BACKENDS)
def test_identical_single_thread(config, backend, mem_trace):
    cfg = config.with_threads(1)
    ref = _ref("st", cfg, "icount", [mem_trace], stop="all_done")
    got = _run(cfg, "icount", [mem_trace], backend, stop="all_done")
    _assert_identical(ref, got)


@pytest.mark.parametrize("backend", ALT_BACKENDS)
def test_identical_no_warmup_no_prewarm(config, backend, ilp_trace, mem_trace):
    """Cold start (no warmup phase, cold caches) — the run_loop seam's
    single-phase path."""
    kw = {"warmup_uops": 0, "prewarm_caches": False}
    traces = [ilp_trace, mem_trace]
    ref = _ref("cold", config, "cssp", traces, **kw)
    got = _run(config, "cssp", traces, backend, **kw)
    _assert_identical(ref, got)


@pytest.mark.parametrize("backend", ALT_BACKENDS)
def test_identical_unbounded_machine(unbounded_config, backend, ilp_trace, mem_trace):
    """Figure 2's unbounded-resource machine grows register files on the
    slow path; both backends must grow identically."""
    traces = [ilp_trace, mem_trace]
    ref = _ref("unbounded", unbounded_config, "icount", traces)
    got = _run(unbounded_config, "icount", traces, backend)
    _assert_identical(ref, got)


class _EvenCycleIcount(IcountPolicy):
    """Icount that admits only on even cycles: admission reads
    ``proc.cycle``, which no dispatch, issue, commit or squash moves."""

    def may_dispatch(self, tid, cluster, needed=1):
        return self.proc.cycle % 2 == 0


@pytest.mark.parametrize("backend", ALT_BACKENDS)
def test_admission_may_read_any_state(config, backend, ilp_trace, mem_trace):
    """A thread blocked at rename re-runs steering and admission every
    cycle, so an admission rule may read any machine or policy state and
    still runs to completion, identically on every engine.  A policy
    subclass is outside the C policy table, so on ``cloop`` this runs,
    and covers, the ``vectorized`` fallback, not the kernel."""
    traces = [ilp_trace, mem_trace]
    if backend == "cloop":
        proc = make_processor("cloop", config, _EvenCycleIcount(), traces)
        assert not proc.kernel_active()
    ref = _ref("even-cycle", config, _EvenCycleIcount, traces)
    got = _run(config, _EvenCycleIcount, traces, backend)
    assert ref.committed > 0
    _assert_identical(ref, got)


@pytest.mark.parametrize("backend", ALT_BACKENDS)
def test_identical_under_pool_growth(config, backend, monkeypatch, ilp_trace,
                                     mem_trace):
    """A deliberately tiny slot pool forces the C kernel to grow its pool
    mid-run; results must not depend on pool capacity."""
    from repro.core.ckernel import kernel_unavailable_reason
    from repro.core.cloop import CloopProcessor

    sized = []

    def tiny_pool(self):
        sized.append(self)
        return 64

    monkeypatch.setattr(CloopProcessor, "_pool_capacity", tiny_pool)
    traces = [ilp_trace, mem_trace]
    ref = _ref("stats|icount", config, "icount", traces)
    got = _run(config, "icount", traces, backend)
    _assert_identical(ref, got)
    if backend == "cloop" and kernel_unavailable_reason() is None:
        assert sized, "the 64-slot pool never reached the C context"


@pytest.mark.parametrize("backend", ["cloop"])
def test_identical_without_compiled_kernel(config, monkeypatch, ilp_trace, mem_trace,
                                           backend):
    """``REPRO_NO_CKERNEL`` forces the kernel-backed backend onto its
    Python fallback; behaviour must not change."""
    traces = [ilp_trace, mem_trace]
    ref = _ref("stats|icount", config, "icount", traces)
    monkeypatch.setenv("REPRO_NO_CKERNEL", "1")
    got = _run(config, "icount", traces, backend)
    _assert_identical(ref, got)


def test_processors_report_backend(config, ilp_trace, mem_trace):
    from repro.core.backends import make_processor

    for backend in BACKENDS:
        proc = make_processor(backend, config, make_policy("icount"),
                              [ilp_trace, mem_trace])
        assert proc.backend_name == backend


def test_unknown_backend_fails_fast():
    """A typo'd name raises immediately and the message names every
    registered backend (not a silent fallback)."""
    with pytest.raises(ValueError) as exc:
        resolve_backend("vectroized")
    msg = str(exc.value)
    assert "vectroized" in msg
    for name in BACKENDS:
        assert name in msg


def test_unknown_backend_from_env_names_source(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "turbo")
    with pytest.raises(ValueError) as exc:
        resolve_backend(None)
    assert "REPRO_BACKEND" in str(exc.value)


def test_unknown_backend_error_notes_optional_backends(monkeypatch):
    """With the kernel toolchain unavailable, the selection error also
    says the optional backend is degraded (and why)."""
    monkeypatch.setenv("REPRO_NO_CKERNEL", "1")
    with pytest.raises(ValueError) as exc:
        resolve_backend("nope")
    msg = str(exc.value)
    for opt in OPTIONAL_BACKENDS:
        assert f"[{opt}:" in msg


@pytest.mark.parametrize("retired", ["numpy", "compiled"])
def test_retired_backend_names_fail_fast(monkeypatch, retired):
    """The slot-pool engines were removed; their names are unknown names
    now, and the error points at the engines that replace them."""
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    with pytest.raises(ValueError) as exc:
        resolve_backend(retired)
    monkeypatch.setenv("REPRO_BACKEND", retired)
    with pytest.raises(ValueError) as env_exc:
        resolve_backend(None)
    for msg in (str(exc.value), str(env_exc.value)):
        assert retired in msg
        assert "vectorized" in msg and "cloop" in msg
    assert "REPRO_BACKEND" in str(env_exc.value)
