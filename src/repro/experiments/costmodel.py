"""Per-item runtime estimation for the sweep scheduler.

A sweep is a bag of independent simulations with wildly different costs:
a MEM-bound pair under CDPRF runs several times longer than an ILP pair
under Icount, and fast-forward eligibility cuts stall-heavy runs further.
FIFO dispatch therefore routinely strands one long item at the tail of a
sweep while every other worker idles.  The scheduler in
:mod:`repro.experiments.parallel` instead dispatches
**longest-expected-first** (the classic LPT heuristic), which needs a cost
estimate per item — that estimate lives here.

The model is deliberately simple and self-correcting:

* the estimated runtime of an item is ``rate × total trace uops``, where
  ``rate`` (seconds per uop) is looked up in a bucket keyed by
  ``(policy, workload kind, cycle engine, fast-forward on/off)``;
* buckets start from static priors (MEM > MIX > ILP, adaptive policies
  above static ones, the vectorized engine discounted against the
  reference, fast-forward discounting stall-heavy runs) and are
  **calibrated** with an exponential moving average of observed per-item
  timings reported back by the pool;
* calibration recorded before buckets were backend-keyed (three-segment
  keys) is migrated on load to the ``reference`` engine, which is what
  produced it;
* calibration persists across processes in
  ``~/.cache/repro/cost_model.json`` (override with ``REPRO_COST_MODEL``,
  disable persistence with ``REPRO_COST_MODEL=0``), written atomically and
  tolerated when corrupt — LPT only needs the *relative* order of items,
  so a cold or stale model degrades throughput, never correctness.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.parallel import WorkItem

_ENV_VAR = "REPRO_COST_MODEL"
_DISABLED = ("0", "off", "false", "no")

#: Conservative prior: seconds of simulation per trace uop on one core.
#: Only relative magnitudes matter for LPT ordering.
BASE_RATE = 4e-5

#: Workload-kind multipliers ("st" = single-thread reference run).
KIND_FACTOR = {"ilp": 1.0, "mix": 1.45, "mem": 2.0, "st": 0.7}

#: Policy multipliers (default 1.0): adaptive schemes do per-cycle or
#: per-interval bookkeeping, gating schemes lengthen runs.
POLICY_FACTOR = {
    "cdprf": 1.35,
    "dcra": 1.25,
    "hillclimb": 1.2,
    "stall": 1.15,
    "flush+": 1.25,
}

#: Fast-forward discount for the kinds it helps (idle-window jumping pays
#: off on memory-stalled runs, barely at all on ILP runs).
FF_FACTOR = {"mem": 0.75, "mix": 0.85, "st": 0.95, "ilp": 1.0}

#: Cycle-engine multipliers: the flattened SoA engine runs the same
#: simulation in roughly half the time of the reference interpreter (the
#: ``cycle_loop_*`` pairs of benchmarks/bench_engine_speed.py time both on
#: the same traces).  The whole-loop kernel
#: ("cloop") amortizes the FFI boundary over the whole run and lands well
#: under both (construction/marshal is most of what remains).
#: Calibration refines this per bucket; only the relative order matters
#: for LPT.
BACKEND_FACTOR = {
    "reference": 1.0,
    "vectorized": 0.55,
    "cloop": 0.15,
}

#: Prior for engines registered after this table was written: assume the
#: modern default's rate, not the reference interpreter's — a new engine
#: is always at least as fast as vectorized, and a 2x-pessimistic prior
#: would push its items to the front of every LPT schedule.
_UNKNOWN_BACKEND_FACTOR = BACKEND_FACTOR["vectorized"]

#: EWMA weight of a new observation against the bucket's current rate.
ALPHA = 0.4


def ff_default() -> bool:
    """The fast-forward setting a ``fast_forward=None`` item resolves to
    (mirrors :func:`repro.core.simulator`'s ``REPRO_FF`` handling)."""
    return os.environ.get("REPRO_FF", "").strip().lower() not in (
        "0",
        "false",
        "off",
        "no",
    )


def default_path() -> Path | None:
    """Where calibration persists, or ``None`` when disabled."""
    env = os.environ.get(_ENV_VAR)
    if env is not None:
        if env.strip().lower() in _DISABLED or not env.strip():
            return None
        return Path(env)
    return Path.home() / ".cache" / "repro" / "cost_model.json"


def item_features(item: "WorkItem") -> tuple[str, str, bool, str, int]:
    """``(policy, kind, fast_forward, backend, total_uops)`` of one item."""
    from repro.core.backends import resolve_backend

    if item.single is not None:
        kind = "st"
        uops = item.single.n_uops
    else:
        assert item.workload is not None
        kind = item.workload.wtype
        uops = sum(t.n_uops for t in item.workload.traces)
    ff = ff_default() if item.fast_forward is None else bool(item.fast_forward)
    backend = item.backend if item.backend is not None else resolve_backend()
    return item.policy, kind, ff, backend, uops


def _migrate_key(key: str) -> str:
    """Upgrade a pre-backend bucket key (``policy|kind|ff``) in place.

    Those rates were measured on the reference interpreter (the only
    engine that existed when they were recorded), so they land in its
    buckets; vectorized buckets start from priors and calibrate fresh.
    """
    parts = key.split("|")
    if len(parts) == 3:
        return f"{parts[0]}|{parts[1]}|reference|{parts[2]}"
    return key


class CostModel:
    """Bucketed seconds-per-uop rates with EWMA calibration."""

    def __init__(self, path: Path | None = None) -> None:
        self.path = path
        #: ``bucket -> [rate, n_observations]``
        self._rates: dict[str, list[float]] = {}
        self._dirty = False
        if path is not None:
            self._load(path)

    # -- persistence --------------------------------------------------------

    def _load(self, path: Path) -> None:
        try:
            data = json.loads(path.read_text())
            rates = data["rates"]
            self._rates = {
                _migrate_key(str(k)): [float(v["rate"]), int(v["n"])]
                for k, v in rates.items()
                if float(v["rate"]) > 0
            }
        except FileNotFoundError:
            pass
        except (OSError, ValueError, TypeError, KeyError):
            # corrupt calibration: start cold, overwrite on next save
            self._rates = {}

    def save(self) -> bool:
        """Atomically persist calibration; no-op when unchanged/disabled."""
        if self.path is None or not self._dirty:
            return False
        payload = json.dumps(
            {
                "version": 1,
                "rates": {
                    k: {"rate": r, "n": n} for k, (r, n) in sorted(self._rates.items())
                },
            },
            indent=1,
        )
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as fh:
                    fh.write(payload)
                os.replace(tmp, self.path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            return False  # read-only checkout: scheduling still works
        self._dirty = False
        return True

    # -- estimation ---------------------------------------------------------

    @staticmethod
    def _bucket(policy: str, kind: str, ff: bool, backend: str) -> str:
        return f"{policy}|{kind}|{backend}|{'ff' if ff else 'step'}"

    @staticmethod
    def _prior(policy: str, kind: str, ff: bool, backend: str) -> float:
        rate = (
            BASE_RATE
            * KIND_FACTOR.get(kind, 1.2)
            * POLICY_FACTOR.get(policy, 1.0)
            * BACKEND_FACTOR.get(backend, _UNKNOWN_BACKEND_FACTOR)
        )
        if ff:
            rate *= FF_FACTOR.get(kind, 1.0)
        return rate

    def rate(self, policy: str, kind: str, ff: bool, backend: str | None = None) -> float:
        if backend is None:
            from repro.core.backends import resolve_backend

            backend = resolve_backend()
        got = self._rates.get(self._bucket(policy, kind, ff, backend))
        return got[0] if got else self._prior(policy, kind, ff, backend)

    def estimate(self, item: "WorkItem") -> float:
        """Expected wall-clock seconds for ``item``."""
        policy, kind, ff, backend, uops = item_features(item)
        return self.rate(policy, kind, ff, backend) * uops

    def lpt_order(
        self, items: list["WorkItem"]
    ) -> tuple[dict[int, float], list["WorkItem"]]:
        """``(estimates by id(item), items longest-expected-first)``.

        The shared dispatch order of every executor: the local pool's
        bounded in-flight window and the fabric coordinator's cross-host
        leases both hand out work from the front of this list, so a
        remote sweep schedules exactly like a local one.
        """
        estimates = {id(item): self.estimate(item) for item in items}
        ordered = sorted(
            items, key=lambda it: estimates[id(it)], reverse=True
        )
        return estimates, ordered

    def observe(self, item: "WorkItem", seconds: float) -> None:
        """Fold one completed item's measured runtime into its bucket."""
        policy, kind, ff, backend, uops = item_features(item)
        if uops <= 0 or seconds <= 0:
            return
        observed = seconds / uops
        bucket = self._bucket(policy, kind, ff, backend)
        got = self._rates.get(bucket)
        if got is None:
            self._rates[bucket] = [observed, 1]
        else:
            got[0] += ALPHA * (observed - got[0])
            got[1] += 1
        self._dirty = True
