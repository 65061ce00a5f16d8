#!/usr/bin/env python
"""Kill-a-worker smoke test for the distributed sweep fabric.

Launches ``repro-sim sweep --executor tcp`` as a coordinator subprocess,
connects two ``repro-sim worker`` subprocesses over loopback TCP, then
SIGKILLs one worker as soon as the coordinator's ``sweep_trace.jsonl``
shows a completed item.  The coordinator must re-queue the dead worker's
leased items onto the survivor and finish the sweep, and the resulting
cache tree must be **byte-identical** to a plain ``--jobs 1`` local run
of the same sweep:

* every (policy, workload) key completed exactly once (one
  ``sweep_trace.jsonl`` row each: ``complete_item`` writes one per call);
* every cache entry present with exactly the bytes the serial run wrote;
* both the coordinator and the surviving worker exit 0.

Prints a one-line JSON summary on success and exits non-zero on any
violation.  Used by tests and by the ``fabric-smoke`` CI job.

Usage: python scripts/fabric_smoke.py [--work-dir DIR] [--keep-workers N]
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

POLICIES = ["icount", "cssp", "stall", "cdprf"]
SWEEP_ARGS = [
    "--scale", "smoke",
    "--category", "ISPEC00",
    "--iq-entries", "32",
    "--unbounded-regs",
    "--unbounded-rob",
]
for _p in POLICIES:
    SWEEP_ARGS += ["--policy", _p]

ANNOUNCE = re.compile(
    r"\[repro\] fabric: coordinator listening on ([\d.]+):(\d+)"
)


def _env(work_dir: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    # isolate the mutable side state; share the trace cache between the
    # serial and distributed runs (that sharing is the design: workers
    # rebuild traces from specs through the same on-disk cache)
    env["REPRO_COST_MODEL"] = str(work_dir / "cost_model.json")
    env["REPRO_TRACE_CACHE"] = str(work_dir / "traces")
    return env


def _cli(*args: str) -> list[str]:
    return [sys.executable, "-m", "repro.cli", *args]


def _cache_tree(cache_dir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(cache_dir.glob("*.json"))}


def _completed(cache_dir: Path) -> list[tuple[str, str]]:
    """``(policy, workload)`` of every finished ``sweep_trace.jsonl`` row
    (a row the coordinator is still appending has no newline yet)."""
    try:
        text = (cache_dir / "sweep_trace.jsonl").read_text()
    except OSError:
        return []
    rows = text.splitlines()[: text.count("\n")]
    return [(r["policy"], r["workload"]) for r in map(json.loads, rows)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--work-dir", default=None)
    parser.add_argument(
        "--workers", type=int, default=2, help="workers to start (default 2)"
    )
    args = parser.parse_args()

    tmp = None
    if args.work_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-fabric-smoke-")
        work_dir = Path(tmp.name)
    else:
        work_dir = Path(args.work_dir)
        work_dir.mkdir(parents=True, exist_ok=True)
    env = _env(work_dir)
    serial_dir = work_dir / "serial"
    tcp_dir = work_dir / "tcp"

    # 1. serial reference run: the bytes the fabric has to reproduce
    ref = subprocess.run(
        _cli("sweep", "--jobs", "1", "--cache-dir", str(serial_dir),
             *SWEEP_ARGS),
        env=env, capture_output=True, text=True, timeout=600,
    )
    if ref.returncode != 0:
        print(ref.stdout + ref.stderr, file=sys.stderr)
        print("FAIL: serial reference run failed", file=sys.stderr)
        return 1
    total = len(_cache_tree(serial_dir))

    # 2. coordinator on a free loopback port
    coord = subprocess.Popen(
        _cli("sweep", "--executor", "tcp", "--bind", "127.0.0.1:0",
             "--lease-timeout", "15", "--cache-dir", str(tcp_dir),
             *SWEEP_ARGS),
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    assert coord.stderr is not None
    port = None
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        line = coord.stderr.readline()
        if not line:
            raise RuntimeError(
                f"coordinator exited before announcing (rc={coord.poll()})"
            )
        match = ANNOUNCE.search(line)
        if match:
            port = int(match.group(2))
            break
    if port is None:
        coord.kill()
        raise RuntimeError("coordinator did not announce a port within 60s")

    # 3. workers dial in (fast heartbeats so the smoke stays snappy)
    workers = [
        subprocess.Popen(
            _cli("worker", "--connect", f"127.0.0.1:{port}",
                 "--heartbeat", "0.5"),
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        for _ in range(args.workers)
    ]

    # 4. SIGKILL one worker as soon as the trace shows a completed item
    deadline = time.monotonic() + 300
    while time.monotonic() < deadline and coord.poll() is None:
        if _completed(tcp_dir):
            break
        time.sleep(0.01)
    completed_at_kill = len(_completed(tcp_dir))
    killed_mid_run = coord.poll() is None and completed_at_kill < total
    workers[0].kill()
    workers[0].wait()
    if not killed_mid_run:
        print("warning: sweep finished before the kill landed",
              file=sys.stderr)

    # 5. the survivor finishes the sweep; everyone exits clean
    coord_out, coord_err = coord.communicate(timeout=600)
    survivor_rcs = [w.wait(timeout=120) for w in workers[1:]]

    completed = _completed(tcp_dir)
    ref_tree, tcp_tree = _cache_tree(serial_dir), _cache_tree(tcp_dir)
    requeue_seen = "re-queuing" in coord_err

    summary = {
        "total": total,
        "killed_mid_run": killed_mid_run,
        "completed_at_kill": completed_at_kill,
        "requeue_seen": requeue_seen,
        "coordinator_rc": coord.returncode,
        "survivor_rcs": survivor_rcs,
        "trace_rows": len(completed),
        "trace_unique": len(set(completed)),
        "cache_entries": len(tcp_tree),
        "byte_identical": tcp_tree == ref_tree,
    }
    summary["ok"] = (
        coord.returncode == 0
        and all(rc == 0 for rc in survivor_rcs)
        and total > 0
        and len(completed) == len(set(completed)) == total
        and summary["byte_identical"]
        # the kill must actually have been absorbed mid-run, unless the
        # sweep was simply too fast for the kill to land
        and (requeue_seen or not killed_mid_run)
    )
    print(json.dumps(summary))
    if not summary["ok"]:
        print(coord_out + coord_err, file=sys.stderr)
    if tmp is not None:
        tmp.cleanup()
    return 0 if summary["ok"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
