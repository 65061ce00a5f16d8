#!/usr/bin/env python
"""Kill/resume smoke test for the sweep engine.

Launches a serial smoke-scale sweep in a child process, SIGKILLs it as
soon as its first result-cache entry appears, then reruns the sweep on
the same cache dir — no flag: the cache is the record of what finished
— on the worker pool and verifies that

* the rerun executed exactly the simulations the killed run had not
  cached, and
* the finished sweep covers every (policy, workload) pair.

Prints a one-line JSON summary on success and exits non-zero on any
violation.  Used by tests/experiments/test_resume.py and by the
``sweep-parallel-consistency`` CI job.

With ``--server`` the same exactly-once guarantee is asserted one layer
up: a ``repro-sim serve`` subprocess takes a 12-item sweep over HTTP,
is SIGTERMed mid-sweep (graceful shutdown drains in-flight items and
serializes the job to ``service_state.json``), and a restarted server
on the same cache dir resumes the job **under its original id** and
finishes it — with every simulation appearing exactly once across both
lives in ``sweep_trace.jsonl``.  Used by the ``service-smoke`` CI job.

Usage: python scripts/resume_smoke.py [--cache-dir DIR] [--server]
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

POOL_KW = dict(
    n_uops=2500, n_ilp=1, n_mem=1, n_mix=0, n_mixes_category=0,
    categories=("ISPEC00",),
)
POLICIES = ["icount", "cssp", "stall", "cdprf"]

CHILD_CODE = f"""
import sys
sys.path.insert(0, {str(REPO / "src")!r})
from repro.experiments.runner import ExperimentRunner, figure2_config
from repro.trace.workloads import build_pool

pool = build_pool(**{POOL_KW!r})
runner = ExperimentRunner("smoke", pool=pool, cache_dir=sys.argv[1])
runner.sweep(figure2_config(32), {POLICIES!r}, label="kill-target")
"""


SERVER_SWEEP = {
    "scale": "smoke",
    "policies": POLICIES,
    "categories": ["ISPEC00"],
    "iq_entries": 32,
    "unbounded_regs": True,
    "unbounded_rob": True,
}


def _start_server(cache_dir: Path) -> tuple[subprocess.Popen, int]:
    """Launch ``repro-sim serve --port 0`` and return (process, port)."""
    import re

    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--port", "0",
            "--cache-dir", str(cache_dir),
            "--jobs", "1",          # one slot: the sweep survives the kill
            "--executor", "process",
            "--scale", "smoke",
            "--rate", "0",
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )
    assert proc.stderr is not None
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        line = proc.stderr.readline()
        if not line:
            raise RuntimeError(
                f"server exited before announcing a port (rc={proc.poll()})"
            )
        match = re.search(r"http://127\.0\.0\.1:(\d+)", line)
        if match:
            return proc, int(match.group(1))
    proc.kill()
    raise RuntimeError("server did not announce a port within 60s")


def _rows(path: Path) -> list[str]:
    """Lines of ``path``; none while it does not exist yet."""
    try:
        return path.read_text().splitlines()
    except OSError:
        return []


def server_mode(cache_dir: Path) -> dict:
    """Kill/restart a *server* mid-sweep; assert exactly-once completion."""
    from repro.service.client import ServiceClient

    trace = cache_dir / "sweep_trace.jsonl"
    state_file = cache_dir / "service_state.json"
    total = len(POLICIES) * 3  # ISPEC00 has 3 workloads at smoke scale

    # 1. first life: submit, wait for real progress, SIGTERM
    proc, port = _start_server(cache_dir)
    client = ServiceClient(port=port, tenant="resume")
    client.wait_ready(timeout=60)
    job_id = client.submit_sweep(SERVER_SWEEP)["id"]
    # complete_item writes one sweep_trace.jsonl row per executed item
    deadline = time.monotonic() + 300
    while time.monotonic() < deadline and proc.poll() is None:
        if _rows(trace):
            break
        time.sleep(0.02)
    killed_mid_run = proc.poll() is None
    proc.send_signal(signal.SIGTERM)
    first_exit = proc.wait(timeout=120)
    executed_before = len(_rows(trace))
    state_saved = state_file.exists()

    # 2. second life: same cache dir, the job resumes under its own id
    proc, port = _start_server(cache_dir)
    try:
        client = ServiceClient(port=port, tenant="resume")
        client.wait_ready(timeout=60)
        final = client.wait(job_id, timeout=600, poll=0.1)
        resumed_flag = bool(final.get("resumed"))
    finally:
        proc.send_signal(signal.SIGTERM)
        second_exit = proc.wait(timeout=120)

    # 3. exactly-once verdicts across both lives
    executed = [
        (row["policy"], row["workload"])
        for row in map(json.loads, _rows(trace))
    ]
    summary = {
        "mode": "server",
        "total": total,
        "killed_mid_run": killed_mid_run,
        "state_saved": state_saved,
        "resumed_job_id_preserved": resumed_flag,
        "final_state": final.get("state"),
        "first_life_executed": executed_before,
        "second_life_executed": final.get("executed"),
        "resumed_hits": final.get("hits"),
        "trace_rows": len(executed),
        "trace_unique": len(set(executed)),
        "first_exit": first_exit,
        "second_exit": second_exit,
    }
    summary["ok"] = (
        final.get("state") == "done"
        # every simulation ran exactly once across both lives
        and len(executed) == len(set(executed)) == total
        # the restarted job skipped exactly what the first life finished
        and final.get("hits") == executed_before
        and final.get("executed") == total - executed_before
        and (not killed_mid_run or (state_saved and resumed_flag))
        and first_exit == 0
        and second_exit == 0
    )
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument(
        "--server",
        action="store_true",
        help="kill/restart a repro-sim serve subprocess instead of a bare "
        "sweep, asserting exactly-once completion across the restart",
    )
    args = parser.parse_args()

    tmp = None
    if args.cache_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-resume-smoke-")
        cache_dir = Path(tmp.name) / "cache"
    else:
        cache_dir = Path(args.cache_dir)

    if args.server:
        cache_dir.mkdir(parents=True, exist_ok=True)
        summary = server_mode(cache_dir)
        print(json.dumps(summary))
        if tmp is not None:
            tmp.cleanup()
        return 0 if summary["ok"] else 1

    # 1. start a serial sweep and kill it once a cache entry shows progress
    # (the serial path writes no sweep_trace.jsonl rows; its *.json cache
    # entries land atomically, so a listed entry is a finished one)
    child = subprocess.Popen(
        [sys.executable, "-c", CHILD_CODE, str(cache_dir)],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + 120
    while time.monotonic() < deadline and child.poll() is None:
        if any(cache_dir.glob("*.json")):
            break
        time.sleep(0.02)
    killed = child.poll() is None
    if killed:
        child.send_signal(signal.SIGKILL)
    child.wait()
    if not killed:
        print("warning: child finished before the kill; the rerun has no work",
              file=sys.stderr)

    # 2. rerun on the worker pool, same cache dir, no flag
    from repro.experiments import parallel
    from repro.experiments.runner import ExperimentRunner, figure2_config
    from repro.trace.workloads import build_pool

    pool = build_pool(**POOL_KW)
    config = figure2_config(32)
    total = len(POLICIES) * len(pool.workloads)
    cached_before = len(list(cache_dir.glob("*.json")))

    runner = ExperimentRunner("smoke", pool=pool, cache_dir=cache_dir, jobs=2)
    result = runner.sweep(config, POLICIES, label="resume")
    parallel.shutdown()

    summary = {
        "total": total,
        "killed_mid_run": killed,
        "cached_before": cached_before,
        "resumed_sims": runner.sims_run,
        "resumed_hits": runner.cache_hits,
        "complete": len(result) == total,
    }
    ok = (
        summary["complete"]
        # every cached entry is skipped, everything else re-runs
        and runner.sims_run == total - cached_before
        and runner.cache_hits == cached_before
    )
    print(json.dumps(summary))
    if tmp is not None:
        tmp.cleanup()
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
