"""Hermetic environment: every ``REPRO_*`` knob and cache the benchmark uses.

The benchmark must measure the same program on every run, whatever the
caller's shell exports.  :func:`prepare` therefore drops every inherited
``REPRO_*`` variable, sets each knob the program reads, and points the
kernel cache, trace cache, cost model and temporary files at directories
under ``.perfbench/`` in the checkout (listed in ``.gitignore``, so a run
leaves ``git status`` unchanged).  It also pins the process to one CPU.
Child processes inherit the result.
"""

from __future__ import annotations

import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
KERNEL_CACHE = STATE / "ckernel"
TRACE_CACHE = STATE / "traces"
RESULTS = STATE / "results"

#: the program's knobs, fixed for every run (REPRO_NO_CKERNEL stays unset)
KNOBS = {
    "REPRO_BACKEND": "cloop",
    "REPRO_FF": "1",
    "REPRO_JOBS": "1",
    "REPRO_SHM": "0",
    "REPRO_EXECUTOR": "local",
    "REPRO_SCALE": "quick",
}


class MissingProgram(RuntimeError):
    """The checkout holds no ``src/repro`` package to measure."""


def prepare() -> None:
    """Set the hermetic environment and make ``src`` importable.

    Raises :class:`MissingProgram` before touching the file system when
    the program's sources are absent.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise MissingProgram(f"no program to measure: {SRC / 'repro'} is missing")
    for name in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[name]
    tmp = STATE / "tmp"
    for path in (KERNEL_CACHE, TRACE_CACHE, RESULTS, tmp):
        path.mkdir(parents=True, exist_ok=True)
    os.environ.update(KNOBS)
    os.environ["REPRO_CKERNEL_CACHE"] = str(KERNEL_CACHE)
    os.environ["REPRO_TRACE_CACHE"] = str(TRACE_CACHE)
    # no cost-model persistence (it would default into benchmarks/results/)
    # until scratch() gives the run a file of its own
    os.environ["REPRO_COST_MODEL"] = "0"
    # the C compiler and tempfile users write here, not to the system /tmp
    os.environ["TMPDIR"] = str(tmp)
    os.environ["PYTHONPATH"] = str(SRC)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pin_one_cpu()


def pin_one_cpu() -> None:
    """Run this process, and every process it starts, on one CPU.

    The service workload's client, event-loop and executor threads hand
    each job back and forth.  Spread over two vCPUs, every hand-off waits
    for an idle vCPU to wake, which made up half of a cached re-request's
    latency and most of its run-to-run spread.  The highest-numbered
    allowed CPU is taken because device interrupts favour the lowest.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def scratch(prefix: str) -> Path:
    """A fresh scratch directory for one process's run (result caches,
    journals, service state), holding its own cost model so that no run
    inherits another's calibration.  The caller removes it."""
    path = Path(tempfile.mkdtemp(prefix=prefix, dir=STATE))
    os.environ["REPRO_COST_MODEL"] = str(path / "cost_model.json")
    return path
