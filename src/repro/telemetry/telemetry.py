"""The ``Telemetry`` hook object the cycle engine carries.

A :class:`Telemetry` instance bundles the interval sampler and the event
ring behind the narrow surface the :class:`~repro.core.processor.Processor`
calls.  The contract with the hot loop:

* the processor holds ``self.tel`` which is ``None`` by default — every
  call site guards with ``if tel is not None:`` so a disabled run pays one
  attribute load + identity test per cycle and nothing per uop;
* per-cycle work funnels through :meth:`end_cycle` (stage boundary, after
  fetch), which closes starvation episodes and takes interval samples;
* everything else is emitted from paths that are already rare (flushes,
  re-partitions, steering redirects, register-starved rename cycles), so
  enabling telemetry does not perturb the hot loop's shape.

Telemetry must never change simulation results: it only *reads* machine
state, and every collected value derives from the deterministic simulation
(no wall-clock, no process identity), so exports are byte-identical across
runs, processes and worker counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.telemetry.events import (
    FLUSH,
    MISPREDICT,
    REPARTITION,
    STARVE_BEGIN,
    STARVE_END,
    STEER_REDIRECT,
    Event,
    EventRing,
    Severity,
)
from repro.telemetry.sampler import IntervalSampler

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.processor import Processor


@dataclass(frozen=True)
class TelemetryConfig:
    """What to collect and at what granularity (picklable; crosses the
    process boundary to sweep workers unchanged)."""

    sample_interval: int = 4096
    events: bool = True
    min_severity: int = Severity.INFO   # DEBUG adds per-uop steering detail
    ring_capacity: int = 65536

    def __post_init__(self) -> None:
        if self.sample_interval <= 0:
            raise ValueError("sample_interval must be positive")
        if self.ring_capacity <= 0:
            raise ValueError("ring_capacity must be positive")


class Telemetry:
    """Sampler + event trace, threaded through one simulation."""

    __slots__ = (
        "config",
        "sampler",
        "events",
        "_min_severity",
        "_events_on",
        "_next_sample",
        "_starving",
        "_last_stall",
    )

    def __init__(self, config: TelemetryConfig | None = None) -> None:
        self.config = config or TelemetryConfig()
        self.sampler = IntervalSampler(self.config.sample_interval)
        self.events = EventRing(self.config.ring_capacity)
        self._min_severity = int(self.config.min_severity)
        self._events_on = self.config.events
        self._next_sample = self.config.sample_interval
        # (tid, regclass) -> episode start cycle / last starved cycle
        self._starving: dict[tuple[int, int], int] = {}
        self._last_stall: dict[tuple[int, int], int] = {}

    # -- lifecycle --------------------------------------------------------

    def attach(self, proc: "Processor") -> None:
        """Bind to ``proc`` (after its policy is attached)."""
        self.sampler.attach(proc)
        self._next_sample = proc.cycle + self.config.sample_interval

    def reset(self, proc: "Processor") -> None:
        """Forget everything collected so far (warmup/measurement reset)."""
        self.sampler.clear()
        self.sampler.rebase(proc)
        self.events.clear()
        self._starving.clear()
        self._last_stall.clear()
        self._next_sample = proc.cycle + self.config.sample_interval

    # -- per-cycle stage boundary ----------------------------------------

    def end_cycle(self, proc: "Processor") -> None:
        """Called once per cycle by the processor (when telemetry is on)."""
        cycle = proc.cycle
        if self._starving:
            self._close_stale_episodes(cycle)
        if cycle >= self._next_sample:
            self.sampler.sample(proc)
            self._next_sample = cycle + self.config.sample_interval

    # -- event emission ---------------------------------------------------

    def emit(
        self,
        cycle: int,
        kind: str,
        severity: int,
        tid: int = -1,
        cluster: int = -1,
        data: dict | None = None,
    ) -> None:
        """Record one event, subject to the severity filter."""
        if not self._events_on or severity < self._min_severity:
            return
        self.events.append(Event(cycle, kind, severity, tid, cluster, data))

    def flush(self, cycle: int, tid: int, keep_age: int) -> None:
        """A policy flushed ``tid`` back to ``keep_age`` (Flush+)."""
        self.emit(cycle, FLUSH, Severity.INFO, tid, data={"keep_age": keep_age})

    def repartition(self, cycle: int, thresholds: list[list[int]]) -> None:
        """CDPRF closed an interval; ``thresholds[tid][regclass]``."""
        self.emit(
            cycle,
            REPARTITION,
            Severity.INFO,
            data={
                "int": [th[0] for th in thresholds],
                "fp": [th[1] for th in thresholds],
            },
        )

    def steer_redirect(
        self, cycle: int, tid: int, preferred: int, chosen: int, cause: str
    ) -> None:
        """Rename sent a uop to its non-preferred cluster (DEBUG)."""
        self.emit(
            cycle,
            STEER_REDIRECT,
            Severity.DEBUG,
            tid,
            chosen,
            {"preferred": preferred, "cause": cause},
        )

    def mispredict(self, cycle: int, tid: int) -> None:
        """A mispredicted branch resolved; the thread redirects (DEBUG)."""
        self.emit(cycle, MISPREDICT, Severity.DEBUG, tid)

    # -- starvation episodes ---------------------------------------------

    def note_reg_stall(self, cycle: int, tid: int, regclass: int) -> None:
        """Rename was blocked for lack of ``regclass`` registers this cycle;
        consecutive stalls form one starvation episode."""
        key = (tid, regclass)
        if key not in self._starving:
            self._starving[key] = cycle
            self.emit(
                cycle, STARVE_BEGIN, Severity.INFO, tid, data={"regclass": regclass}
            )
        self._last_stall[key] = cycle

    def _close_stale_episodes(self, cycle: int) -> None:
        for key in [k for k, last in self._last_stall.items() if last < cycle]:
            begin = self._starving.pop(key)
            last = self._last_stall.pop(key)
            tid, regclass = key
            self.emit(
                last,
                STARVE_END,
                Severity.INFO,
                tid,
                data={
                    "regclass": regclass,
                    "begin": begin,
                    "duration": last - begin + 1,
                },
            )

    # -- export -----------------------------------------------------------

    def export(self, out_dir, meta: dict | None = None) -> dict:
        """Write all export formats into ``out_dir``; returns name->path."""
        from repro.telemetry.export import export_all

        return export_all(self, out_dir, meta=meta)
