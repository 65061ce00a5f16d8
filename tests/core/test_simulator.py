"""Run-API tests (stop modes, warmup, prewarm, result packaging)."""

import pytest

from repro.core.processor import Processor
from repro.core.simulator import (
    run_simulation,
    run_single_thread,
    run_workload,
)
from repro.policies import make_policy
from repro.trace.workloads import build_pool


def test_first_done_stops_at_first_thread(config, ilp_trace, mem_trace):
    res = run_simulation(config, "icount", [ilp_trace, mem_trace])
    done = [
        res.committed_per_thread[t] == n
        for t, n in enumerate([len(ilp_trace), len(mem_trace)])
    ]
    assert any(done)
    assert not all(done)  # the mem thread lags far behind


def test_all_done_finishes_everything(config, ilp_trace, ilp_trace_b):
    res = run_simulation(config, "icount", [ilp_trace, ilp_trace_b], stop="all_done")
    assert res.committed == len(ilp_trace) + len(ilp_trace_b)


def test_cycles_mode_runs_exact_budget(config, ilp_trace, mem_trace):
    res = run_simulation(
        config, "icount", [ilp_trace, mem_trace], max_cycles=500, stop="cycles"
    )
    assert res.cycles == 500


def test_invalid_stop_rejected(config, ilp_trace, mem_trace):
    with pytest.raises(ValueError, match="stop"):
        run_simulation(config, "icount", [ilp_trace, mem_trace], stop="nope")


def test_policy_accepts_instance(config, ilp_trace, mem_trace):
    from repro.policies import make_policy

    res = run_simulation(config, make_policy("cssp"), [ilp_trace, mem_trace])
    assert res.policy == "cssp"


def test_warmup_excludes_startup(config, ilp_trace, ilp_trace_b):
    cold = run_simulation(config, "icount", [ilp_trace, ilp_trace_b])
    warm = run_simulation(
        config, "icount", [ilp_trace, ilp_trace_b], warmup_uops=2000
    )
    # warm measurement covers fewer instructions at higher, steadier IPC
    assert warm.committed < cold.committed
    assert warm.ipc > cold.ipc * 0.9


def test_prewarm_kills_ilp_compulsory_misses(config, ilp_trace, ilp_trace_b):
    res = run_simulation(
        config, "icount", [ilp_trace, ilp_trace_b], prewarm_caches=True
    )
    assert res.stats["extra"]["l2_misses"] == 0


def test_prewarm_preserves_mem_boundedness(config, mem_trace, ilp_trace):
    res = run_simulation(
        config, "icount", [mem_trace, ilp_trace], prewarm_caches=True
    )
    assert res.stats["extra"]["l2_misses"] > 0


def test_run_workload_names_result(config):
    pool = build_pool(n_uops=600, n_ilp=1, n_mem=0, n_mix=0, n_mixes_category=0)
    wl = pool.workloads[0]
    res = run_workload(config, "icount", wl)
    assert res.workload == f"{wl.category}/{wl.name}"


def test_run_single_thread_uses_full_machine(config, ilp_trace):
    res = run_single_thread(config, ilp_trace)
    assert res.committed == len(ilp_trace)
    assert res.committed_per_thread == (len(ilp_trace),)


def test_thread_ipc_accessor(config, ilp_trace, mem_trace):
    res = run_simulation(config, "icount", [ilp_trace, mem_trace])
    total = res.thread_ipc(0) + res.thread_ipc(1)
    assert total == pytest.approx(res.ipc)


def test_result_is_deterministic(config, ilp_trace, mem_trace):
    a = run_simulation(config, "cssp", [ilp_trace, mem_trace])
    b = run_simulation(config, "cssp", [ilp_trace, mem_trace])
    assert a.cycles == b.cycles
    assert a.committed_per_thread == b.committed_per_thread


def test_first_done_stops_exactly(config, ilp_trace, mem_trace):
    """``run_simulation`` stops on the commit cycle of the deciding thread.

    The pinned value is a regression guard for the old 16-cycle stop-poll,
    which overshot by up to 15 cycles and skewed ``cycles`` (and with it
    every per-thread IPC) — the exact cycle is asserted against a manual
    cycle-by-cycle loop, then pinned.
    """
    res = run_simulation(config, "icount", [ilp_trace, mem_trace])
    proc = Processor(config, make_policy("icount"), [ilp_trace, mem_trace])
    while not proc.any_done():
        proc.step()
    assert res.cycles == proc.cycle
    assert res.cycles == 2726  # pinned: exact commit cycle of thread 0


def test_all_done_stops_exactly(config, ilp_trace, ilp_trace_b):
    res = run_simulation(config, "icount", [ilp_trace, ilp_trace_b], stop="all_done")
    proc = Processor(config, make_policy("icount"), [ilp_trace, ilp_trace_b])
    while not proc.all_done():
        proc.step()
    assert res.cycles == proc.cycle
    assert res.cycles == 2599  # pinned


def test_stop_mode_cycles_unaffected(config, ilp_trace, mem_trace):
    """stop="cycles" runs exactly max_cycles under a gating policy."""
    res = run_simulation(
        config,
        "stall",
        [ilp_trace, mem_trace],
        max_cycles=5_000,
        stop="cycles",
    )
    assert res.cycles == 5_000
