"""Per-layer instrumentation for traced runs.

The program has no spans of its own yet, so a traced run wraps the public
entry points of each layer, from the benchmark's files, for the life of
the run (:class:`Instrument`); ``src/`` is not edited.  The wrappers add
spans and read counters the program already keeps; they change no result
(the oracle checks traced runs as it checks untraced ones).

=================  ====================================================
span               what it times
=================  ====================================================
experiments.run    ``ExperimentRunner.run``: cache key, cache lookup and
                   write, journal mark (its self time)
core.simulate      ``run_simulation``: policy set-up, measurement reset,
                   result assembly (its self time)
core.construct     ``processor_class(backend)(...)``
core.prewarm       ``prewarm_caches()``
core.marshal       ``kernel_active()`` on the fresh machine: adopts the C
                   context (trace columns, LRU and predictor seeding)
core.region        each ``run_loop`` call, tagged with its engine path
                   and simulated cycles
core.export        ``finalize_stats()``
trace.load         ``repro.trace.cache.load_records``
ckernel.load       the C kernel's build-or-load from the kernel cache
python.gc          each collection of CPython's cyclic garbage collector
                   (``gc.callbacks``), inside whatever layer triggered it
=================  ====================================================

``core.marshal`` calls ``kernel_active()`` right after the prewarm, on
the machine ``run_simulation`` is about to run.  The first ``run_loop``
would adopt the C context at that same point, from the same state.
"""

from __future__ import annotations

import functools
import gc
from typing import Any, Callable

#: span name -> per-layer metric holding its self time
SELF_METRICS = {
    "setup.import": "setup.import_s",
    "setup.pool": "setup.pool_s",
    "setup.runner": "setup.start_s",
    "setup.service": "setup.start_s",
    "experiments.run": "experiments.run_self_s",
    "core.simulate": "core.simulate_self_s",
    "core.construct": "core.construct_s",
    "core.prewarm": "core.prewarm_s",
    "core.marshal": "core.marshal_s",
    "core.region": "core.region_s",
    "core.export": "core.export_s",
    "trace.load": "trace.load_s",
    "ckernel.load": "ckernel.load_s",
    "service.submit": "service.submit_s",
    "service.stream": "service.stream_s",
    "service.fetch": "service.fetch_s",
    "python.gc": "python.gc_s",
}
# any other span ("job", "setup.warmup") is a root whose self time is
# harness time inside a job: reported as unattributed


class Instrument:
    """Installs the layer wrappers; :meth:`remove` restores the originals."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        #: one dict per finished simulation: engine, cycles, ff, exits
        self.sims: list[dict[str, Any]] = []
        self._kernel: dict[int, bool] = {}
        self._saved: list[tuple[Any, str, Any, bool]] = []
        self._gc_span = None
        #: full (generation 2) collections seen
        self.gc_full = 0

    def _patch(self, owner: Any, name: str, make: Callable[[Any], Any]) -> None:
        own = name in vars(owner)
        orig = getattr(owner, name)
        self._saved.append((owner, name, orig, own))
        setattr(owner, name, make(orig))

    def _spanned(self, owner: Any, name: str, span: str) -> None:
        tracer = self.tracer

        def make(orig):
            @functools.wraps(orig)
            def wrapper(*args, **kwargs):
                with tracer.span(span):
                    return orig(*args, **kwargs)

            return wrapper

        self._patch(owner, name, make)

    def install(self) -> "Instrument":
        import repro.core.cloop as cloop
        import repro.experiments.runner as runner
        import repro.trace.cache as trace_cache

        tracer = self.tracer
        proc_cls = cloop.CloopProcessor
        self._spanned(runner.ExperimentRunner, "run", "experiments.run")
        self._spanned(runner, "run_simulation", "core.simulate")
        self._spanned(proc_cls, "__init__", "core.construct")
        self._spanned(trace_cache, "load_records", "trace.load")
        self._spanned(cloop, "load_shared_lib", "ckernel.load")

        def prewarm(orig):
            def wrapper(proc):
                with tracer.span("core.prewarm"):
                    orig(proc)
                with tracer.span("core.marshal") as attrs:
                    attrs["kernel"] = proc.kernel_active()
                self._kernel[id(proc)] = attrs["kernel"]

            return wrapper

        def run_loop(orig):
            def wrapper(proc, *args, **kwargs):
                cycle0 = proc.cycle
                with tracer.span("core.region") as attrs:
                    orig(proc, *args, **kwargs)
                attrs["cycles"] = proc.cycle - cycle0
                attrs["engine"] = (
                    "kernel" if self._kernel.get(id(proc)) else "fallback"
                )

            return wrapper

        def finalize(orig):
            def wrapper(proc):
                with tracer.span("core.export"):
                    stats = orig(proc)
                self.sims.append(
                    {
                        "kernel": self._kernel.pop(id(proc), False),
                        "cycles": proc.cycle,
                        "ff_skipped": proc.ff_skipped_cycles,
                        "region_exits": sum(proc.region_exits.values()),
                    }
                )
                return stats

            return wrapper

        self._patch(proc_cls, "prewarm_caches", prewarm)
        self._patch(proc_cls, "run_loop", run_loop)
        self._patch(proc_cls, "finalize_stats", finalize)
        gc.callbacks.append(self._on_gc)
        return self

    def _on_gc(self, phase: str, info: dict[str, Any]) -> None:
        # collections never overlap (they run under the interpreter lock)
        if phase == "start":
            if not self.tracer.inside():
                return  # between jobs: no job pays for it
            self._gc_span = self.tracer.span("python.gc")
            self._gc_span.__enter__()
            self.gc_full += info["generation"] == 2
        elif self._gc_span is not None:
            self._gc_span.__exit__(None, None, None)
            self._gc_span = None

    def remove(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        for owner, name, orig, own in reversed(self._saved):
            if own:
                setattr(owner, name, orig)
            else:
                delattr(owner, name)
        self._saved.clear()
