"""Per-layer metrics of a traced run, and the printed tables.

Layer time metrics are totals over the traced run (set-up and timed
phase) in calibrated seconds: each span's self time is scaled by the
calibration factor of the job or set-up step it belongs to.  Because
self times partition each root span (see :func:`spans.self_times`), the
layer totals plus the unattributed remainder (harness time inside job
spans) add up to the traced wall time; :func:`layer_metrics` prints that
sum beside the wall time.
"""

from __future__ import annotations

import json
import statistics
from typing import Any

import layers
from spans import self_times

#: per-layer metric -> unit (the order of BENCHMARK.json's per_layer list)
PER_LAYER: dict[str, str] = {
    "core.marshal_s": "s",
    "core.construct_s": "s",
    "core.prewarm_s": "s",
    "core.region_s": "s",
    "core.export_s": "s",
    "core.simulate_self_s": "s",
    "core.kernel_ns_per_cycle": "ns/cycle",
    "core.fallback_ns_per_cycle": "ns/cycle",
    "core.kernel_job_frac": "ratio",
    "core.ff_skipped_frac": "ratio",
    "core.region_exits": "count",
    **{
        f"policies.{p.replace('+', 'plus')}.job_p50_s": "s"
        for p in ("icount", "cisp", "cssp", "cspsp", "pc",
                  "cssprf", "cisprf", "cdprf", "stall", "flush+")
    },
    "experiments.run_self_s": "s",
    "experiments.cache_hit_s": "s",
    "service.submit_s": "s",
    "service.stream_s": "s",
    "service.fetch_s": "s",
    "service.queue_wait_s": "s",
    "service.run_s": "s",
    "service.items_executed": "count",
    "service.cache_hits": "count",
    "service.events_per_job": "count",
    "setup.import_s": "s",
    "setup.pool_s": "s",
    "setup.start_s": "s",
    "python.gc_s": "s",
    "python.gc_full": "count",
    "trace.load_s": "s",
    "trace.cache_misses": "count",
    "ckernel.load_s": "s",
    "trace.synth_cold_s": "s",
    "ckernel.build_cold_s": "s",
    "sim.cycles": "cycles",
    "sim.committed_uops": "uops",
    "sim.l2_misses": "count",
    "sim.copies_arrived": "count",
    "host.probe_s": "s",
    "host.raw_wall_s": "s",
    "host.traced_wall_s": "s",
    "host.unattributed_frac": "ratio",
    "host.trace_overhead_frac": "ratio",
}


def layer_metrics(name, tracer, sims, results, extra) -> dict[str, Any]:
    """Every per-layer metric of one traced run, plus the self-time table."""
    spans = tracer.spans
    by_id = {s.id: s for s in spans}
    selfs = self_times(spans)
    totals: dict[str, float] = {}
    unattributed = 0.0
    wall = 0.0
    region = {"kernel": [0.0, 0], "fallback": [0.0, 0]}
    for s in spans:
        factor = by_id[s.job].attrs.get("factor", 1.0)
        own = selfs[s.id] * factor
        if s.parent is None:
            wall += s.seconds * factor
        if s.name in layers.SELF_METRICS:
            key = layers.SELF_METRICS[s.name]
            totals[key] = totals.get(key, 0.0) + own
        else:
            unattributed += own
        if s.name == "core.region":
            acc = region[s.attrs.get("engine", "fallback")]
            acc[0] += own
            acc[1] += s.attrs.get("cycles", 0)

    ok = [r for r in results if r.error is None]
    values: dict[str, float] = dict.fromkeys(PER_LAYER, 0.0)
    values.update(totals)
    for engine in ("kernel", "fallback"):
        secs, cycles = region[engine]
        values[f"core.{engine}_ns_per_cycle"] = secs * 1e9 / cycles if cycles else 0.0
    n_sims = len(sims)
    values["core.kernel_job_frac"] = (
        sum(s["kernel"] for s in sims) / n_sims if n_sims else 0.0
    )
    cycles = sum(s["cycles"] for s in sims)
    values["core.ff_skipped_frac"] = (
        sum(s["ff_skipped"] for s in sims) / cycles if cycles else 0.0
    )
    values["core.region_exits"] = sum(s["region_exits"] for s in sims)
    for key in PER_LAYER:
        if key.startswith("policies."):
            scheme = key.split(".")[1].replace("plus", "+")
            # jobs that simulated: a service re-request runs no scheme
            times = [r.cal_s for r in ok if r.outcome.scheme == scheme and r.outcome.sims]
            values[key] = statistics.median(times) if times else 0.0
    hits = extra.get("cache_hit_s") or []
    values["experiments.cache_hit_s"] = statistics.median(hits) if hits else 0.0
    values["service.queue_wait_s"] = sum(
        r.outcome.queue_wait_s * r.cal_s / r.raw_s for r in ok
    )
    values["service.run_s"] = sum(r.outcome.run_s * r.cal_s / r.raw_s for r in ok)
    service = extra.get("service", {})
    values["service.items_executed"] = service.get("executed_items", 0)
    values["service.cache_hits"] = service.get("cache_hits", 0)
    values["service.events_per_job"] = (
        sum(r.outcome.events for r in ok) / len(ok) if ok else 0.0
    )
    values["trace.cache_misses"] = extra.get("trace_misses", 0)
    values["python.gc_full"] = extra.get("gc_full", 0)
    values.update(extra.get("cold", {}))
    sim = {"cycles": 0, "committed": 0, "l2_misses": 0, "copies": 0}
    for r in ok:
        if not r.outcome.sims:
            continue
        for text in r.outcome.records.values():
            rec = json.loads(text)
            sim["cycles"] += rec["cycles"]
            sim["committed"] += rec["committed"]
            sim["l2_misses"] += rec["extra"]["l2_misses"]
            sim["copies"] += round(rec["copies_per_committed"] * rec["committed"])
    values["sim.cycles"] = sim["cycles"]
    values["sim.committed_uops"] = sim["committed"]
    values["sim.l2_misses"] = sim["l2_misses"]
    values["sim.copies_arrived"] = sim["copies"]
    values["host.probe_s"] = statistics.median(r.probe_s for r in results)
    values["host.raw_wall_s"] = sum(r.raw_s for r in results)
    values["host.traced_wall_s"] = wall
    values["host.unattributed_frac"] = unattributed / wall if wall else 0.0
    untraced = extra["untraced"]["workloads"][name]["metrics"]["wall_s"]["value"]
    traced = sum(r.cal_s for r in results)
    values["host.trace_overhead_frac"] = (traced - untraced) / untraced

    table = sorted(totals.items(), key=lambda kv: -kv[1])
    return {
        "metrics": {k: {"value": values[k], "unit": u} for k, u in PER_LAYER.items()},
        "self_times": dict(table),
        "unattributed_s": unattributed,
        "traced_wall_s": wall,
    }


def print_layers(name: str, doc: dict[str, Any], out) -> None:
    lay = doc["layers"]
    wall = lay["traced_wall_s"]
    print(f"\n== {name}: layer self times (traced run, set-up + timed phase) ==", file=out)
    print(f"{'layer':<28} {'cal s':>10} {'share':>7}", file=out)
    for key, secs in lay["self_times"].items():
        print(f"{key:<28} {secs:>10.4f} {secs / wall:>7.1%}", file=out)
    rest = lay["unattributed_s"]
    print(f"{'(unattributed)':<28} {rest:>10.4f} {rest / wall:>7.1%}", file=out)
    total = sum(lay["self_times"].values()) + rest
    print(f"{'sum of self times':<28} {total:>10.4f}   traced wall {wall:.4f} s "
          f"(difference {total - wall:+.2e} s)", file=out)
    print(f"\n{'per-layer metric':<34} {'value':>14}  unit", file=out)
    for key, m in lay["metrics"].items():
        print(f"{key:<34} {m['value']:>14.6g}  {m['unit']}", file=out)
    print(f"trace: {doc['trace_file']}", file=out)
