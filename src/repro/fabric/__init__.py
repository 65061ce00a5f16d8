"""repro.fabric — pluggable sweep executors: local pool or TCP scale-out.

The sweep engine (:mod:`repro.experiments.parallel`) made work units
idempotent and resumable: every simulation is a pure function of its
:class:`WorkItem`, and results are content-addressed in the disk cache,
which is the record of what finished.  This package adds the missing
piece for multi-host scale-out — a **transport** — behind one switch:

* ``executor="local"`` (default): the persistent shared process pool;
* ``executor="tcp"``: a :class:`~repro.fabric.coordinator.FabricHub`, a
  :class:`concurrent.futures.Executor` that serves items over a
  length-prefixed JSON protocol to remote workers started with
  ``repro-sim worker --connect host:port``.

Either way :meth:`ExperimentRunner.sweep` drives the executor through the
one dispatch loop, :func:`repro.experiments.parallel.run_items`, and the
results land in the same cache, so a distributed sweep is bit-identical
to a serial one, and rerunning it after a coordinator restart executes
only what is not cached.  Executor resolution mirrors the engine's other
knobs: explicit argument > ``REPRO_EXECUTOR`` environment > ``local``,
failing fast on unknown names.
"""

from __future__ import annotations

import os

from repro.fabric.coordinator import FabricSettings, get_hub, shutdown

#: Known executors, in documentation order.
EXECUTORS = ("local", "tcp")

_ENV_VAR = "REPRO_EXECUTOR"


def resolve_executor(name: str | None = None) -> str:
    """Executor name: explicit ``name`` > ``REPRO_EXECUTOR`` > ``local``.

    Unknown names fail here — before a hub binds a port or a sweep
    starts — with a message listing what exists.
    """
    got = name if name is not None else os.environ.get(_ENV_VAR, "").strip()
    if not got:
        return "local"
    if got not in EXECUTORS:
        source = "executor" if name is not None else _ENV_VAR
        raise ValueError(
            f"{source}={got!r} is not a sweep executor; "
            f"known executors: {', '.join(EXECUTORS)}"
        )
    return got


__all__ = [
    "EXECUTORS",
    "FabricSettings",
    "get_hub",
    "resolve_executor",
    "shutdown",
]
