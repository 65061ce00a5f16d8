"""Per-item runtime estimation for the sweep scheduler.

A sweep is a bag of independent simulations with wildly different costs:
a MEM-bound pair under CDPRF runs several times longer than an ILP pair
under Icount.  FIFO dispatch therefore routinely strands one long item
at the tail of a sweep while every other worker idles.  The scheduler in
:mod:`repro.experiments.parallel` instead dispatches
**longest-expected-first** (the classic LPT heuristic), which needs a cost
estimate per item — that estimate lives here.

The model is deliberately simple and self-correcting:

* the estimated runtime of an item is ``rate × total trace uops``, where
  ``rate`` (seconds per uop) is looked up in a bucket keyed by
  ``(policy, workload kind, cycle engine)``;
* buckets start from static priors (MEM > MIX > ILP, adaptive policies
  above static ones, the faster engines discounted against the
  reference) and are **calibrated** with an exponential moving average
  of observed per-item timings reported back by the pool;
* calibration persists across processes in
  ``~/.cache/repro/cost_model.json`` (override with ``REPRO_COST_MODEL``,
  disable persistence with ``REPRO_COST_MODEL=0``), written atomically and
  tolerated when corrupt or of another :data:`VERSION` — LPT only needs
  the *relative* order of items, so a cold or stale model degrades
  throughput, never correctness.
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

#: File format of the persisted calibration; a file of any other version
#: loads cold and is overwritten on the next save.
VERSION = 2

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


def default_path() -> Path | None:
    """Where calibration persists, or ``None`` when disabled."""
    env = os.environ.get(_ENV_VAR)
    if env is not None:
        if env.strip().lower() in _DISABLED or not env.strip():
            return None
        return Path(env)
    return Path.home() / ".cache" / "repro" / "cost_model.json"


def item_features(item: "WorkItem") -> tuple[str, str, str, int]:
    """``(policy, kind, backend, total_uops)`` of one item."""
    from repro.core.backends import resolve_backend

    if item.single is not None:
        kind = "st"
        uops = item.single.n_uops
    else:
        assert item.workload is not None
        kind = item.workload.wtype
        uops = sum(t.n_uops for t in item.workload.traces)
    backend = item.backend if item.backend is not None else resolve_backend()
    return item.policy, kind, backend, uops


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
            if data["version"] != VERSION:
                return  # another format: start cold, overwrite on next save
            self._rates = {
                str(k): [float(v["rate"]), int(v["n"])]
                for k, v in data["rates"].items()
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
                "version": VERSION,
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
    def _bucket(policy: str, kind: str, backend: str) -> str:
        return f"{policy}|{kind}|{backend}"

    @staticmethod
    def _prior(policy: str, kind: str, backend: str) -> float:
        return (
            BASE_RATE
            * KIND_FACTOR.get(kind, 1.2)
            * POLICY_FACTOR.get(policy, 1.0)
            * BACKEND_FACTOR.get(backend, _UNKNOWN_BACKEND_FACTOR)
        )

    def rate(self, policy: str, kind: str, backend: str | None = None) -> float:
        if backend is None:
            from repro.core.backends import resolve_backend

            backend = resolve_backend()
        got = self._rates.get(self._bucket(policy, kind, backend))
        return got[0] if got else self._prior(policy, kind, backend)

    def estimate(self, item: "WorkItem") -> float:
        """Expected wall-clock seconds for ``item``."""
        policy, kind, backend, uops = item_features(item)
        return self.rate(policy, kind, backend) * uops

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
        policy, kind, backend, uops = item_features(item)
        if uops <= 0 or seconds <= 0:
            return
        observed = seconds / uops
        bucket = self._bucket(policy, kind, backend)
        got = self._rates.get(bucket)
        if got is None:
            self._rates[bucket] = [observed, 1]
        else:
            got[0] += ALPHA * (observed - got[0])
            got[1] += 1
        self._dirty = True
