"""Shared fixtures: small traces, configs and helper builders.

Traces here are deliberately tiny (1-4k uops) so the whole unit suite runs
in seconds; benchmark-scale runs live under ``benchmarks/``.
"""

from __future__ import annotations

import pytest

from repro.config import baseline_config
from repro.trace.synthesis import TraceProfile, generate_trace

#: a 200 KB JSON body nested deeper than ``json.loads`` can recurse (it
#: raises RecursionError): the fabric's frame parser and the service's
#: request parser must reject it as malformed
NESTED_JSON = b"[" * 100_000 + b"]" * 100_000


@pytest.fixture(scope="session", autouse=True)
def _isolated_trace_cache(tmp_path_factory):
    """Point the trace-synthesis cache at a per-session temp directory.

    Keeps the suite hermetic (no reads from, or writes to, the user's
    ``~/.cache/repro/traces``) while still exercising the cache code paths
    that :func:`repro.trace.synthesis.generate_trace` goes through.
    """
    import os

    from repro.trace import cache

    old = os.environ.get("REPRO_TRACE_CACHE")
    os.environ["REPRO_TRACE_CACHE"] = str(tmp_path_factory.mktemp("trace-cache"))
    cache.reset_stats()
    yield
    if old is None:
        os.environ.pop("REPRO_TRACE_CACHE", None)
    else:
        os.environ["REPRO_TRACE_CACHE"] = old


@pytest.fixture(scope="session", autouse=True)
def _isolated_kernel_cache(tmp_path_factory):
    """Build the C kernels into a per-session temp directory, so a suite
    run never adds a build to the user's ``~/.cache/repro/ckernel`` (at
    the price of one cold kernel build per session)."""
    import os

    old = os.environ.get("REPRO_CKERNEL_CACHE")
    os.environ["REPRO_CKERNEL_CACHE"] = str(tmp_path_factory.mktemp("ckernel"))
    yield
    if old is None:
        os.environ.pop("REPRO_CKERNEL_CACHE", None)
    else:
        os.environ["REPRO_CKERNEL_CACHE"] = old


@pytest.fixture
def c_kernel():
    """Skip, with the reason, where the C kernels cannot be built (no cffi,
    no C compiler, or ``REPRO_NO_CKERNEL`` set)."""
    from repro.core.ckernel import kernel_unavailable_reason

    reason = kernel_unavailable_reason()
    if reason is not None:
        pytest.skip(f"C kernel unavailable: {reason}")


# A compact, fast default machine for tests: the Table 1 baseline.
@pytest.fixture(scope="session")
def config():
    return baseline_config()


@pytest.fixture(scope="session")
def unbounded_config():
    """Figure 2's setup: unbounded registers and ROB."""
    return baseline_config(unbounded_regs=True, unbounded_rob=True)


@pytest.fixture(scope="session")
def ilp_profile():
    return TraceProfile(
        name="test-ilp",
        frac_load=0.2,
        frac_store=0.08,
        frac_branch=0.08,
        dep_mean_distance=9.0,
        dep_locality=0.3,
        working_set_lines=200,
        stride_frac=0.7,
        branch_bias=0.95,
        int_regs_used=10,
        fp_regs_used=10,
        n_blocks=24,
    )


@pytest.fixture(scope="session")
def mem_profile():
    return TraceProfile(
        name="test-mem",
        frac_load=0.3,
        frac_store=0.1,
        frac_branch=0.1,
        dep_mean_distance=4.0,
        dep_locality=0.55,
        working_set_lines=150_000,
        stride_frac=0.4,
        load_dep_chain=0.3,
        branch_bias=0.9,
        int_regs_used=12,
        fp_regs_used=4,
        n_blocks=48,
    )


@pytest.fixture(scope="session")
def fp_profile():
    return TraceProfile(
        name="test-fp",
        frac_load=0.22,
        frac_store=0.08,
        frac_branch=0.07,
        frac_fp=0.65,
        dep_mean_distance=8.0,
        dep_locality=0.35,
        working_set_lines=300,
        stride_frac=0.8,
        branch_bias=0.96,
        int_regs_used=6,
        fp_regs_used=12,
        n_blocks=24,
    )


@pytest.fixture(scope="session")
def ilp_trace(ilp_profile):
    return generate_trace(ilp_profile, seed=11, n_uops=3000, kind="ilp")


@pytest.fixture(scope="session")
def ilp_trace_b(ilp_profile):
    return generate_trace(ilp_profile, seed=23, n_uops=3000, kind="ilp")


@pytest.fixture(scope="session")
def mem_trace(mem_profile):
    return generate_trace(mem_profile, seed=17, n_uops=3000, kind="mem")


@pytest.fixture(scope="session")
def mem_trace_b(mem_profile):
    return generate_trace(mem_profile, seed=29, n_uops=3000, kind="mem")


@pytest.fixture(scope="session")
def fp_trace(fp_profile):
    return generate_trace(fp_profile, seed=19, n_uops=3000, kind="ilp")


@pytest.fixture(scope="session")
def feature_trace():
    """Indirect branches + MROM complex ops: exercises every fetch slow path."""
    profile = TraceProfile(
        name="test-feature",
        frac_load=0.22,
        frac_store=0.08,
        frac_branch=0.12,
        frac_indirect=0.3,
        indirect_targets=5,
        frac_complex=0.05,
        dep_mean_distance=6.0,
        dep_locality=0.4,
        working_set_lines=500,
        stride_frac=0.6,
        branch_bias=0.85,
        int_regs_used=12,
        fp_regs_used=6,
        n_blocks=32,
    )
    return generate_trace(profile, seed=7, n_uops=3000, kind="ilp")
