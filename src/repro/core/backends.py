"""Pluggable simulation-engine backends.

The simulator has one *semantic* definition of the machine — the
reference interpreter in :mod:`repro.core.processor` — and may have any
number of faster *engines* that execute those semantics.  A backend is a
:class:`~repro.core.processor.Processor` subclass that produces
bit-identical statistics and telemetry for every policy, with
fast-forward on or off; the cross-backend identity suite
(``tests/core/test_backend_identity.py``) is the gate that keeps that
guarantee honest.

Registered engines:

``reference``
    the oracle interpreter (one object per uop, one method per stage).
``vectorized``
    the flattened SoA engine (the default): one function, precomputed
    trace columns, object-per-uop in-flight state.
``cloop``
    the whole-loop compiled engine: the entire cycle loop runs in one
    resident C kernel over a recycled slot pool, re-entering Python
    only at observable-event boundaries (:mod:`repro.core.cloop`).
    All ten of the paper's schemes run natively in a C policy table;
    telemetry runs, DCRA, hill-climbing, policy subclasses, steering
    ablations and any environment without the toolchain (cffi and a C
    compiler, built on demand by :mod:`repro.core.ckernel`) run on the
    inherited ``vectorized`` engine instead, bit-identical.

Selection precedence: explicit ``backend=`` argument >
``REPRO_BACKEND`` environment variable > :data:`DEFAULT_BACKEND`.
Unknown names fail fast with the list of valid backends (mirroring
``resolve_jobs`` for ``REPRO_JOBS``) instead of silently falling back —
a typo'd ``REPRO_BACKEND=vectroized`` must not quietly run something
else while a benchmark attributes its numbers to the wrong engine.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.processor import Processor

_ENV_VAR = "REPRO_BACKEND"

#: Registered backend names, in oracle-to-fastest order.
BACKENDS: tuple[str, ...] = ("reference", "vectorized", "cloop")

#: Backends whose full speed depends on an optional toolchain; they
#: still *run* without it (pure-Python fallback), but selection errors
#: report the degradation so users aren't surprised by the numbers.
OPTIONAL_BACKENDS: tuple[str, ...] = ("cloop",)

DEFAULT_BACKEND = "vectorized"


def optional_backend_notes() -> dict[str, str]:
    """Availability notes for optional backends (empty note = fully
    available).  Probing is cheap: it checks the toolchain, it does not
    build the kernel."""
    notes: dict[str, str] = {}
    from repro.core.ckernel import kernel_unavailable_reason

    reason = kernel_unavailable_reason()
    if reason:
        notes["cloop"] = f"runs on the vectorized engine: {reason}"
    return notes


def resolve_backend(backend: str | None = None) -> str:
    """Resolve a backend request to a registered name.

    ``backend=None`` consults ``REPRO_BACKEND``; an unset/empty variable
    means :data:`DEFAULT_BACKEND`.  Raises :class:`ValueError` for
    unknown names, naming the source of the bad value, every registered
    backend, and — for optional backends — whether their accelerated
    path is currently available.
    """
    source = "backend"
    if backend is None:
        env = os.environ.get(_ENV_VAR)
        if env is None or not env.strip():
            return DEFAULT_BACKEND
        backend = env
        source = _ENV_VAR
    name = backend.strip().lower()
    if name not in BACKENDS:
        valid = ", ".join(BACKENDS)
        msg = (
            f"unknown simulation backend {backend!r} (from {source}); "
            f"valid backends: {valid}"
        )
        try:
            notes = optional_backend_notes()
        except Exception:  # pragma: no cover - probe must never mask the error
            notes = {}
        for opt, note in notes.items():
            msg += f" [{opt}: {note}]"
        raise ValueError(msg)
    return name


def processor_class(backend: str) -> "type[Processor]":
    """The :class:`Processor` subclass implementing ``backend``.

    ``backend`` must already be resolved (see :func:`resolve_backend`).
    Engines are imported lazily so merely importing the core package
    never pays for them.
    """
    if backend == "vectorized":
        from repro.core.vectorized import VectorizedProcessor

        return VectorizedProcessor
    if backend == "cloop":
        from repro.core.cloop import CloopProcessor

        return CloopProcessor
    if backend == "reference":
        from repro.core.processor import Processor

        return Processor
    raise ValueError(f"unresolved backend name {backend!r}")


def make_processor(
    backend: str | None,
    config,
    policy,
    traces,
    steering=None,
    telemetry=None,
) -> "Processor":
    """Construct the processor for ``backend`` (resolving ``None``)."""
    cls = processor_class(resolve_backend(backend))
    return cls(config, policy, traces, steering=steering, telemetry=telemetry)
