"""One dispatch loop, three executors: the contract of the seam.

``parallel.run_items`` drives every sweep executor through the stdlib
``Executor`` interface, ``submit(run_item, item)``.  The same small sweep
runs through a thread pool, the persistent process pool and a loopback
``FabricHub`` with one in-process worker.  On each, the cache tree must
be byte-identical to a serial run's, and every executed item must leave
exactly one ``sweep_trace.jsonl`` line, carrying the fields it always has
(tcp adds who ran it and the executor name).
"""

from __future__ import annotations

import json
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.experiments import parallel
from repro.experiments.runner import ExperimentRunner, figure2_config
from repro.fabric.coordinator import FabricHub, FabricSettings
from repro.fabric.worker import Worker
from repro.trace.workloads import build_pool

POOL_KW = dict(
    n_uops=2500, n_ilp=1, n_mem=1, n_mix=0, n_mixes_category=0,
    categories=("ISPEC00",),
)
POLICIES = ["icount", "cssp"]

TIMING_FIELDS = {
    "label", "scale", "policy", "workload", "backend",
    "predicted_s", "elapsed_s", "wait_s", "worker_pid",
}


@pytest.fixture(scope="module")
def pool():
    return build_pool(**POOL_KW)


@pytest.fixture(scope="module")
def serial_tree(pool, tmp_path_factory):
    cache = tmp_path_factory.mktemp("serial")
    ExperimentRunner("smoke", pool=pool, cache_dir=cache).sweep(
        figure2_config(32), POLICIES
    )
    return _tree(cache)


def _tree(cache_dir):
    return {p.name: p.read_bytes() for p in sorted(cache_dir.glob("*.json"))}


@pytest.fixture(params=["thread", "process", "tcp"])
def executor(request):
    """``(name, executor, run_items keywords)``; the process pool is the
    default ``executor=None`` with ``jobs=2``."""
    if request.param == "thread":
        with ThreadPoolExecutor(max_workers=2) as pool:
            yield "thread", pool, {}
    elif request.param == "process":
        parallel.shutdown()
        yield "process", None, {"jobs": 2}
        parallel.shutdown()
    else:
        hub = FabricHub(FabricSettings(port=0))
        worker = Worker("127.0.0.1", hub.port, heartbeat=0.1)
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        yield "tcp", hub, {}
        hub.close()
        thread.join(timeout=10)


def test_every_executor_runs_the_same_sweep(executor, pool, serial_tree, tmp_path):
    name, ex, kw = executor
    runner = ExperimentRunner("smoke", pool=pool, cache_dir=tmp_path)
    items = parallel.sweep_items(runner, figure2_config(32), POLICIES, list(pool))
    executed = parallel.run_items(runner, items, ex, label="seam", **kw)

    assert executed == runner.sims_run == len(items) == 4
    assert _tree(tmp_path) == serial_tree

    tcp = name == "tcp"
    expected = sorted((it.key.policy, it.key.workload) for it in items)
    trace = [
        json.loads(line)
        for line in (tmp_path / "sweep_trace.jsonl").read_text().splitlines()
    ]
    assert sorted((t["policy"], t["workload"]) for t in trace) == expected
    timing_fields = TIMING_FIELDS | ({"worker", "executor"} if tcp else set())
    assert all(set(t) == timing_fields for t in trace)
    assert trace == runner.sweep_log
