#!/usr/bin/env python
"""Fabric overhead: TCP scale-out vs the local pool vs serial.

Runs the same cold-cache sweep three ways in one process —

* **serial**    — ``jobs=1``, the bit-identity reference;
* **local**     — the persistent shared process pool;
* **tcp**       — a loopback :class:`FabricHub` with N worker
  *subprocesses* (real sockets, real process isolation, the exact path
  ``repro-sim worker --connect`` takes);

— and reports wall time, speedup over serial, and the tcp/local overhead
ratio.  On one machine the tcp executor cannot beat the local pool (same
cores, plus JSON framing and a coordinator select loop); what this
benchmark guards is that the *overhead stays small*: per-item fabric cost
is a few milliseconds of encode/decode against simulations that take
seconds at paper scale.

Every leg's cache tree is byte-compared against the serial leg before
timing is reported, so the numbers are only ever produced for *correct*
runs.  Results merge into ``benchmarks/results/fabric.json``.

Usage: python benchmarks/bench_fabric.py [--quick] [--workers N]
           [--policies P,...] [--out FILE]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from repro.experiments import parallel  # noqa: E402
from repro.experiments.runner import (  # noqa: E402
    ExperimentRunner,
    figure2_config,
)
from repro.fabric import FabricSettings  # noqa: E402
from repro.trace.workloads import build_pool  # noqa: E402


def _pool(quick: bool):
    if quick:
        return build_pool(
            n_uops=2500, n_ilp=1, n_mem=1, n_mix=0, n_mixes_category=0,
            categories=("ISPEC00",),
        )
    return build_pool(
        n_uops=20000, n_ilp=2, n_mem=2, n_mix=2, n_mixes_category=2,
        categories=("ISPEC00", "FSPEC00"),
    )


def _tree(cache_dir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(cache_dir.glob("*.json"))}


def _run_serial(pool, config, policies, cache_dir):
    runner = ExperimentRunner("smoke", pool=pool, cache_dir=cache_dir, jobs=1)
    t0 = time.perf_counter()
    runner.sweep(config, policies, label="bench-serial")
    return time.perf_counter() - t0, runner.sims_run


def _run_local(pool, config, policies, cache_dir, jobs):
    runner = ExperimentRunner(
        "smoke", pool=pool, cache_dir=cache_dir, jobs=jobs
    )
    t0 = time.perf_counter()
    runner.sweep(config, policies, label="bench-local")
    return time.perf_counter() - t0, runner.sims_run


def _run_tcp(pool, config, policies, cache_dir, n_workers):
    runner = ExperimentRunner(
        "smoke", pool=pool, cache_dir=cache_dir, executor="tcp",
        fabric=FabricSettings(port=0),
    )
    from repro.fabric import get_hub

    # bind the shared hub now so the workers know the port before sweep()
    hub = get_hub(FabricSettings(port=0))
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    workers = [
        subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "worker",
             "--connect", f"127.0.0.1:{hub.port}", "--heartbeat", "1"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        for _ in range(n_workers)
    ]
    try:
        t0 = time.perf_counter()
        runner.sweep(config, policies, label="bench-tcp")
        elapsed = time.perf_counter() - t0
    finally:
        from repro import fabric

        fabric.shutdown()
        for w in workers:
            try:
                w.wait(timeout=60)
            except subprocess.TimeoutExpired:
                w.kill()
    return elapsed, runner.sims_run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--policies", default="icount,cssp,stall,cdprf")
    parser.add_argument(
        "--out", default=str(REPO / "benchmarks" / "results" / "fabric.json")
    )
    args = parser.parse_args()

    policies = [p for p in args.policies.split(",") if p]
    pool = _pool(args.quick)
    config = figure2_config(32)
    total = len(policies) * len(pool.workloads)

    with tempfile.TemporaryDirectory(prefix="repro-bench-fabric-") as tmp:
        base = Path(tmp)

        serial_s, serial_n = _run_serial(
            pool, config, policies, base / "serial"
        )
        local_s, local_n = _run_local(
            pool, config, policies, base / "local", jobs=args.workers
        )
        parallel.shutdown()
        tcp_s, tcp_n = _run_tcp(
            pool, config, policies, base / "tcp", args.workers
        )

        ref = _tree(base / "serial")
        identical = (
            _tree(base / "local") == ref and _tree(base / "tcp") == ref
        )

    summary = {
        "quick": args.quick,
        "workers": args.workers,
        "items": total,
        "serial_s": round(serial_s, 3),
        "local_s": round(local_s, 3),
        "tcp_s": round(tcp_s, 3),
        "local_speedup": round(serial_s / local_s, 3),
        "tcp_speedup": round(serial_s / tcp_s, 3),
        "tcp_vs_local_overhead": round(tcp_s / local_s, 3),
        "tcp_overhead_per_item_ms": round(
            max(0.0, tcp_s - local_s) / total * 1000, 3
        ),
        "byte_identical": identical,
    }
    ok = (
        identical
        and serial_n == local_n == tcp_n == total
        # speed bar: the fabric controls its *overhead*, not the host's
        # core count, so the guard is tcp-vs-local-pool wall time.  Only
        # at full scale — quick-mode simulations are ~50ms, so worker
        # subprocess cold-start dominates and the quick bar is
        # correctness (byte identity) alone.
        and (args.quick or summary["tcp_vs_local_overhead"] < 1.5)
    )
    summary["ok"] = ok
    print(json.dumps(summary, indent=1))

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    existing = {}
    if out.exists():
        try:
            existing = json.loads(out.read_text())
        except ValueError:
            existing = {}
    existing["quick" if args.quick else "full"] = summary
    out.write_text(json.dumps(existing, indent=1) + "\n")
    print(f"results merged into {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
