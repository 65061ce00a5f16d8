"""Job specifications: validation, canonicalization and content keys.

A service request body is a small JSON object describing either one
simulation (``POST /v1/runs``) or a (policy x workload) sweep
(``POST /v1/sweeps``).  This module turns such a body into a frozen
:class:`JobSpec` — rejecting anything malformed with a :class:`SpecError`
(HTTP 400) — and derives the job's **content key**: a digest of the
canonicalized spec under which identical requests deduplicate.

Canonicalization deliberately collapses presentation differences that
cannot change the simulated work:

* policy and category lists are sorted and deduplicated (a sweep is a
  *set* of (policy, workload) pairs);
* the machine knobs (``iq_entries``, ``regs``, ``unbounded_*``) enter via
  the resulting :meth:`ProcessorConfig.digest`, exactly the digest the
  result cache keys on — two spellings of the same machine share a key;
* engine choices (backend, worker count) are absent: they are
  bit-identical by contract and never part of cache identity.

The content key therefore names the same simulations the
:class:`~repro.experiments.runner.RunKey` cache does, one level up.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from typing import Any, Mapping

from repro.config import ProcessorConfig, baseline_config
from repro.experiments.runner import SCALES
from repro.policies import POLICY_NAMES
from repro.trace.categories import CATEGORIES
from repro.trace.workloads import Workload, WorkloadPool

#: Stop conditions run_simulation understands.
STOPS = ("first_done", "all_done")

_COMMON_FIELDS = {
    "scale", "iq_entries", "regs", "unbounded_regs", "unbounded_rob", "stop",
}
_FIELDS = {
    "run": _COMMON_FIELDS | {"policy", "category", "index"},
    "sweep": _COMMON_FIELDS | {"policy", "policies", "category", "categories"},
}


class SpecError(ValueError):
    """A request body that cannot become a valid job (HTTP 400)."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise SpecError(msg)


def _str_list(data: Mapping[str, Any], plural: str, singular: str) -> list[str]:
    """Accept ``{"policies": [...]}`` or ``{"policy": "..."}`` style fields."""
    if plural in data:
        value = data[plural]
        _require(
            isinstance(value, (list, tuple))
            and value
            and all(isinstance(v, str) for v in value),
            f"{plural!r} must be a non-empty list of strings",
        )
        return list(value)
    if singular in data:
        value = data[singular]
        _require(isinstance(value, str), f"{singular!r} must be a string")
        return [value]
    return []


#: Largest ``iq_entries`` or ``regs`` a request may name.  A worker builds
#: the machine a request names, and each of its four register files
#: allocates a free list of ``regs`` entries up front, so without a bound
#: one request can exhaust the server's memory.  The paper's machines use
#: 32 or 64 issue-queue entries and 64 or 128 registers per cluster; 4096
#: is far above both and keeps every machine small.
MAX_MACHINE_SIZE = 4096


def _int_field(
    data: Mapping[str, Any],
    name: str,
    default: int | None,
    minimum: int,
    maximum: int | None = None,
) -> int | None:
    if name not in data or data[name] is None:
        return default
    value = data[name]
    in_range = (
        isinstance(value, int) and not isinstance(value, bool)
        and value >= minimum and (maximum is None or value <= maximum)
    )
    bounds = f">= {minimum}" if maximum is None else f"in [{minimum}, {maximum}]"
    _require(in_range, f"{name!r} must be an integer {bounds}")
    return value


def _bool_field(data: Mapping[str, Any], name: str) -> bool:
    value = data.get(name, False)
    _require(isinstance(value, bool), f"{name!r} must be a boolean")
    return value


@dataclass(frozen=True)
class JobSpec:
    """One validated service job: a single run or a sweep."""

    kind: str  # "run" | "sweep"
    scale: str = "quick"
    policies: tuple[str, ...] = ("icount",)
    categories: tuple[str, ...] | None = None  # None = the whole pool
    index: int = 0  # run kind: workload index within the category
    iq_entries: int = 32
    regs: int | None = None  # None = the Table 1 baseline register file
    unbounded_regs: bool = False
    unbounded_rob: bool = False
    stop: str = "first_done"

    @classmethod
    def from_json(
        cls,
        kind: str,
        data: Mapping[str, Any],
        default_scale: str = "quick",
    ) -> "JobSpec":
        """Validate a request body into a spec; :class:`SpecError` on 400s."""
        _require(kind in ("run", "sweep"), f"unknown job kind {kind!r}")
        _require(
            isinstance(data, Mapping), "request body must be a JSON object"
        )
        unknown = sorted(set(data) - _FIELDS[kind])
        _require(
            not unknown,
            f"unknown field(s) for a {kind} job: {', '.join(unknown)}",
        )

        scale = data.get("scale", default_scale)
        _require(
            isinstance(scale, str) and scale in SCALES,
            f"scale {scale!r} unknown; known scales: {sorted(SCALES)}",
        )

        policies = _str_list(data, "policies", "policy") or ["icount"]
        for policy in policies:
            _require(
                policy in POLICY_NAMES,
                f"policy {policy!r} unknown; known policies: "
                f"{sorted(POLICY_NAMES)}",
            )
        categories = _str_list(data, "categories", "category") or None
        if categories is not None:
            for cat in categories:
                _require(
                    cat in CATEGORIES,
                    f"category {cat!r} unknown; known categories: "
                    f"{sorted(CATEGORIES)}",
                )
        if kind == "run":
            _require(
                len(policies) == 1, "a run job takes exactly one policy"
            )
            _require(
                categories is not None and len(categories) == 1,
                "a run job needs exactly one 'category'",
            )

        iq_entries = _int_field(data, "iq_entries", 32, 1, MAX_MACHINE_SIZE)
        regs = _int_field(data, "regs", None, 1, MAX_MACHINE_SIZE)
        index = _int_field(data, "index", 0, 0)
        stop = data.get("stop", "first_done")
        _require(
            stop in STOPS, f"stop {stop!r} unknown; choose from {STOPS}"
        )
        return cls(
            kind=kind,
            scale=scale,
            policies=tuple(policies),
            categories=tuple(categories) if categories else None,
            index=index if index is not None else 0,
            iq_entries=iq_entries if iq_entries is not None else 32,
            regs=regs,
            unbounded_regs=_bool_field(data, "unbounded_regs"),
            unbounded_rob=_bool_field(data, "unbounded_rob"),
            stop=stop,
        )

    # -- derived identities ---------------------------------------------------

    def config(self) -> ProcessorConfig:
        """The machine this job simulates (digest = cache identity)."""
        cfg = baseline_config(
            unbounded_regs=self.unbounded_regs,
            unbounded_rob=self.unbounded_rob,
        ).with_iq_entries(self.iq_entries)
        if self.regs is not None:
            cfg = cfg.with_regs(self.regs)
        return cfg

    def canonical(self) -> dict[str, Any]:
        """Order-independent identity of the work this job names."""
        doc: dict[str, Any] = {
            "kind": self.kind,
            "scale": self.scale,
            "config": self.config().digest(),
            "policies": sorted(set(self.policies)),
            "categories": (
                sorted(set(self.categories)) if self.categories else None
            ),
            "stop": self.stop,
        }
        if self.kind == "run":
            doc["index"] = self.index
        return doc

    def content_key(self) -> str:
        """Digest under which identical in-flight requests coalesce."""
        blob = json.dumps(self.canonical(), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def workloads(self, pool: WorkloadPool) -> list[Workload]:
        """The pool workloads this spec names, in deterministic order."""
        if self.kind == "run":
            assert self.categories is not None
            candidates = pool.by_category(self.categories[0])
            _require(
                bool(candidates),
                f"category {self.categories[0]!r} is empty at "
                f"scale {self.scale!r}",
            )
            return [candidates[self.index % len(candidates)]]
        if self.categories is None:
            return list(pool)
        out: list[Workload] = []
        for cat in sorted(set(self.categories)):
            out.extend(pool.by_category(cat))
        _require(bool(out), "no workloads in the requested categories")
        return out

    def to_json(self) -> dict[str, Any]:
        """Round-trippable body: ``from_json(kind, to_json())`` == self."""
        doc = asdict(self)
        kind = doc.pop("kind")
        doc["policies"] = list(self.policies)
        if self.categories is not None:
            doc["categories"] = list(self.categories)
        else:
            doc.pop("categories")
        if kind == "run":
            doc["policy"] = doc.pop("policies")[0]
            doc["category"] = doc.pop("categories")[0]
        else:
            doc.pop("index")
        return doc
