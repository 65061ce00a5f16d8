"""Provenance of a result, and a compare that refuses unlike results.

Every result records what it was measured on: the program (git SHA and
dirty flag, plus a digest of ``src/`` for checkouts without git), the
Python, the CPU, the core count, the C toolchain, the seed and the
expected-records digest.  As a trace carries the topology it was
generated on and is checked at load, :func:`compare` refuses two results
whose machine fingerprint, expected-records digest or run length differ
unless forced: a different host or different work explains any
difference.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Any

from hermetic import ROOT, SRC


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), *args],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_digest() -> str:
    """Digest of every file under ``src/repro`` (the measured program)."""
    h = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def machine() -> dict[str, Any]:
    from repro.core.ckernel import kernel_unavailable_reason

    info = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "arch": platform.machine(),
        "cc": bool(shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")),
        "cffi": importlib.util.find_spec("cffi") is not None,
    }
    info["fingerprint"] = hashlib.sha256(
        json.dumps(info, sort_keys=True).encode()
    ).hexdigest()[:16]
    info["kernel"] = kernel_unavailable_reason() or "available"
    return info


def collect(**extra: Any) -> dict[str, Any]:
    """Provenance block of one result."""
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_sha": _git("rev-parse", "HEAD") or "unknown",
        "git_dirty": None if status is None else bool(status),
        "src_digest": source_digest(),
        "machine": machine(),
        "argv": sys.argv[1:],
        **extra,
    }


def compare(a: dict, b: dict, bounds: dict[str, dict], force: bool) -> int:
    """Print B against A metric by metric; returns the exit code.

    ``a`` and ``b`` are result documents (``run.py --out``) or steadiness
    reports; ``bounds`` maps metric name to its BENCHMARK.json entry.
    """
    pa, pb = a["provenance"], b["provenance"]
    problems = []
    if pa["machine"]["fingerprint"] != pb["machine"]["fingerprint"]:
        problems.append(
            f"machine fingerprints differ ({pa['machine']['fingerprint']} vs "
            f"{pb['machine']['fingerprint']})"
        )
    if pa.get("expected_digest") != pb.get("expected_digest"):
        problems.append(
            f"expected-records digests differ ({pa.get('expected_digest')} vs "
            f"{pb.get('expected_digest')}): the inputs are not the same"
        )
    if pa.get("seconds") != pb.get("seconds"):
        problems.append(
            f"run lengths differ (--seconds {pa.get('seconds')} vs "
            f"{pb.get('seconds')}): the work is not the same"
        )
    if problems:
        for p in problems:
            print(f"compare: {p}", file=sys.stderr)
        if not force:
            print("compare: refused (pass --force to compare anyway)", file=sys.stderr)
            return 2
    worse = 0
    print(f"{'workload':<16} {'metric':<22} {'A':>13} {'B':>13} {'change':>8}  verdict")
    for wl in sorted(set(a["workloads"]) & set(b["workloads"])):
        ma, mb = a["workloads"][wl]["metrics"], b["workloads"][wl]["metrics"]
        for name in sorted(set(ma) & set(mb)):
            va, vb = ma[name]["value"], mb[name]["value"]
            spec = bounds.get(name)
            change = (vb - va) / va if va else 0.0
            verdict = ""
            if spec:
                loss = change if spec["better"] == "lower" else -change
                if loss > spec["bound"]:
                    verdict = f"WORSE beyond bound {spec['bound']:.0%}"
                    worse += 1
                elif loss < -spec["bound"]:
                    verdict = "better beyond bound"
                else:
                    verdict = "within bound"
            print(f"{wl:<16} {name:<22} {va:>13.6g} {vb:>13.6g} {change:>+8.1%}  {verdict}")
    return 1 if worse else 0
