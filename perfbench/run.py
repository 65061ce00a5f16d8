#!/usr/bin/env python3
"""Benchmark of the simulator: three single-process workloads on ``cloop``.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig2_ctable --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all              # all three, one table each
    python3 perfbench/run.py --workload all --trace 1    # per-layer metrics + Perfetto trace
    python3 perfbench/run.py --steadiness 10             # repeat, report the spread
    python3 perfbench/run.py --compare A.json B.json     # guarded compare of two results
    python3 perfbench/run.py --regen-expected            # rebuild expected/ (slow)

Every host time is *calibrated*: a fixed pure-Python probe
(:mod:`probe`) runs between consecutive jobs, and each job's time is
scaled by the reference probe time over the mean of the two probes around
it, so the host's speed swings cancel and probe time is excluded.  Jobs
that run no simulation (the service's cached re-requests) use the I/O
probe the same way.  A calibrated second is reported with unit ``s``.

With ``--trace 0`` the last line of standard output is one JSON object
with the end-to-end metrics; with ``--trace 1`` it holds the per-layer
metrics of a traced run, whose spans are also written as Chrome
trace-event JSON under ``.perfbench/results/``.  Each run also writes its
full result, with provenance, next to it (or to ``--out``).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hermetic  # noqa: E402
import probe  # noqa: E402
from estimators import percentile, spread  # noqa: E402

#: end-to-end metrics: name -> unit
E2E = {
    "setup_s": "s",
    "wall_s": "s",
    "sim_uops_per_s": "uops/s",
    "job_latency_p50_s": "s",
    "job_latency_p90_s": "s",
    "peak_rss_mb": "MB",
    "ok_jobs_frac": "ratio",
}
#: fresh-process set-ups per run; setup_s is their median
SETUP_RUNS = 5
#: a timed phase running longer than this (raw) stops; the rest fail
PHASE_LIMIT_S = 120.0
CHILD_TIMEOUT_S = 170.0


def metric(value: float, unit: str) -> dict[str, Any]:
    return {"value": value, "unit": unit}


# --------------------------------------------------------------------------- #
# set-up and the timed phase                                                  #
# --------------------------------------------------------------------------- #


@dataclass
class JobResult:
    job: Any
    raw_s: float
    probe_s: float  # mean of the probes just before and just after the job
    io_probe_s: float | None = None  # the same for the I/O probe (I/O-bound jobs)
    value: Any = None
    outcome: Any = None
    error: str | None = None

    @property
    def factor(self) -> float:
        """Calibrated seconds per raw second of this job."""
        if self.io_probe_s is not None:
            return probe.REFERENCE_IO_PROBE_S / self.io_probe_s
        return probe.REFERENCE_PROBE_S / self.probe_s

    @property
    def cal_s(self) -> float:
        return self.raw_s * self.factor


def run_setup(setup_steps, tracer) -> list[dict[str, Any]]:
    """Run set-up steps ``(name, fn)``, each timed between two probes."""
    steps = []
    before = probe.probe()
    for name, fn in setup_steps:
        with tracer.span(f"setup.{name}") as attrs:
            t0 = time.perf_counter()
            fn()
            raw = time.perf_counter() - t0
        after = probe.probe()
        p = (before + after) / 2
        attrs["factor"] = probe.REFERENCE_PROBE_S / p
        steps.append({"name": name, "raw_s": raw, "probe_s": p,
                      "cal_s": probe.calibrate(raw, p)})
        before = after
    return steps


def timed_phase(wl, jobs: list[Any], tracer) -> list[JobResult]:
    """Run ``jobs`` back to back (closed loop, one client)."""
    from workloads import JOB_TIMEOUT_S

    use_io = any(wl.io_bound(job) for job in jobs)

    def sample() -> tuple[float, float | None]:
        return probe.probe(), probe.io_probe() if use_io else None

    results: list[JobResult] = []
    before = sample()
    stop_at = time.perf_counter() + PHASE_LIMIT_S
    for job in jobs:
        if time.perf_counter() > stop_at:
            results.append(JobResult(job, JOB_TIMEOUT_S, before[0],
                                     error="not run: phase time limit"))
            continue
        value = error = None
        with tracer.span("job") as attrs:
            t0 = time.perf_counter()
            try:
                value = wl.run_job(job)
            except Exception as exc:  # noqa: BLE001 - a failed job is counted
                error = f"{type(exc).__name__}: {exc}"
            raw = time.perf_counter() - t0
        after = sample()
        io = (before[1] + after[1]) / 2 if wl.io_bound(job) else None
        res = JobResult(job, raw, (before[0] + after[0]) / 2, io, value, error=error)
        attrs["factor"] = res.factor
        if error is None and raw > JOB_TIMEOUT_S:
            res.error = f"timeout: {raw:.1f} s"
        results.append(res)
        before = after
    return results


def check(wl, jobs: list[Any], results: list[JobResult]) -> str:
    """Convert and oracle-check every job's records; returns the digest of
    the expected records used."""
    import oracle

    for r in results:
        if r.error is None:
            try:
                r.outcome = wl.outcome(r.job, r.value)
            except Exception as exc:  # noqa: BLE001 - a bad result fails its job
                r.error = f"{type(exc).__name__}: {exc}"
        r.value = None
    expected = oracle.load(wl.name)
    needed = {k for r in results if r.outcome for k in r.outcome.records}
    missing = needed - expected.keys()
    if missing:
        computed = wl.reference(jobs, missing)
        expected.update({k: oracle.digest(v) for k, v in computed.items()})
    for r in results:
        if r.outcome is None:
            continue
        for key, rec in r.outcome.records.items():
            if oracle.digest(rec) != expected.get(key):
                r.error = f"record mismatch: {key}"
                break
    return oracle.set_digest({k: expected[k] for k in needed if k in expected})


def fresh_machine(config=None, policy: str = "icount", workload=None):
    """A prewarmed ``cloop`` machine that has not run yet (default: the
    Figure 2 machine under Icount on the first smoke workload)."""
    from repro.core.backends import processor_class
    from repro.experiments.runner import figure2_config
    from repro.policies.registry import make_policy
    from workloads import load_pool

    proc = processor_class("cloop")(
        config or figure2_config(32),
        make_policy(policy),
        list((workload or load_pool("smoke")[0]).traces),
    )
    proc.prewarm_caches()
    return proc


def kernel_job_frac(wl, jobs: list[Any]) -> float:
    """Share of simulating jobs whose machine adopts the C kernel.

    The C envelope depends on the policy and machine, not on the traces,
    so one fresh machine per distinct (config, policy) answers for all
    the jobs that share it."""
    memo: dict[tuple[str, str], bool] = {}
    flags = []
    for job in jobs:
        variant = wl.variant(job)
        if variant is None:
            continue
        config, policy, workload = variant
        key = (config.digest(), policy)
        if key not in memo:
            memo[key] = bool(fresh_machine(config, policy, workload).kernel_active())
        flags.append(memo[key])
    return sum(flags) / len(flags) if flags else 0.0


# --------------------------------------------------------------------------- #
# child processes                                                             #
# --------------------------------------------------------------------------- #


def _child(args: list[str], timeout: float = CHILD_TIMEOUT_S) -> dict[str, Any]:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *args],
        capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-5:]
        raise ChildFailed(proc.returncode, "\n".join(tail))
    return json.loads(proc.stdout.strip().splitlines()[-1])


class ChildFailed(RuntimeError):
    def __init__(self, code: int, detail: str) -> None:
        super().__init__(detail)
        self.code = code


def setup_child(args) -> int:
    """One fresh-process set-up (``--setup-child``); prints its steps."""
    import workloads
    from spans import NullTracer

    run_dir = hermetic.scratch("setup-")
    wl = workloads.make(args.workload, args.seed, args.seconds, run_dir)
    try:
        steps = run_setup(wl.setup_steps(), NullTracer())
        if args.check_kernel:
            reason = kernel_problem()
            if reason:
                print(f"perfbench: C kernel unavailable: {reason}", file=sys.stderr)
                return 3
        print(json.dumps({"steps": steps}))
        return 0
    finally:
        wl.close()
        shutil.rmtree(run_dir, ignore_errors=True)


def kernel_problem() -> str | None:
    """Why a C-table machine would not run in the C kernel (None = it does)."""
    from repro.core.ckernel import kernel_unavailable_reason

    reason = kernel_unavailable_reason()
    if reason:
        return reason
    proc = fresh_machine()
    if proc.kernel_active():
        return None
    return getattr(proc, "_cl_error", None) or "the cloop kernel did not load"


def cold_child(args) -> int:
    """Cold-cache costs (``--cold-child``): trace synthesis and kernel
    build into empty caches, which timed runs never pay."""
    import workloads

    run_dir = hermetic.scratch("cold-")
    try:
        os.environ["REPRO_TRACE_CACHE"] = str(run_dir / "traces")
        os.environ["REPRO_CKERNEL_CACHE"] = str(run_dir / "ckernel")
        wl = workloads.make(args.workload, args.seed, args.seconds, run_dir)
        p0 = probe.probe()
        t0 = time.perf_counter()
        pool = workloads.load_pool(wl.scale)
        synth = time.perf_counter() - t0
        p1 = probe.probe()
        proc = fresh_machine(workload=pool[0])
        t0 = time.perf_counter()
        ok = proc.kernel_active()
        build = time.perf_counter() - t0
        p2 = probe.probe()
        print(json.dumps({
            "trace.synth_cold_s": probe.calibrate(synth, (p0 + p1) / 2),
            "ckernel.build_cold_s": probe.calibrate(build, (p1 + p2) / 2) if ok else 0.0,
        }))
        return 0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


# --------------------------------------------------------------------------- #
# one workload                                                                #
# --------------------------------------------------------------------------- #


def measure(name: str, seed: int, seconds: float, trace: bool,
            skip_setup: bool = False) -> dict[str, Any]:
    """Run one workload; returns its result document."""
    import workloads
    from spans import NullTracer, Tracer

    child_args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    setups = []
    if not skip_setup:
        # the first fresh-process set-up warms the kernel and trace caches
        # (building them on a first run) and checks that the C kernel loads
        _child(["--setup-child", "--check-kernel", *child_args], timeout=900)
        if not trace:
            setups = [_child(["--setup-child", *child_args]) for _ in range(SETUP_RUNS)]
    extra: dict[str, Any] = {}
    if trace:
        extra["cold"] = _child(["--cold-child", *child_args], timeout=900)
        extra["untraced"] = _child(["--skip-setup", "--out", "-", *child_args])

    run_dir = hermetic.scratch("run-")
    tracer = Tracer() if trace else NullTracer()
    wl = workloads.make(name, seed, seconds, run_dir, tracer)
    instrument = None
    try:
        setup_steps = wl.setup_steps()
        # the first step imports the program; the wrappers need it loaded
        steps = run_setup(setup_steps[:1], tracer)
        if trace:
            import layers

            instrument = layers.Instrument(tracer).install()
        steps += run_setup(setup_steps[1:], tracer)
        from repro.trace import cache as trace_cache

        jobs = wl.jobs()
        stats0 = wl.stats() if hasattr(wl, "stats") else {}
        misses0 = trace_cache.stats["misses"]
        results = timed_phase(wl, jobs, tracer)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        extra["trace_misses"] = trace_cache.stats["misses"] - misses0
        if hasattr(wl, "stats"):
            stats1 = wl.stats()
            extra["service"] = {
                k: stats1[k] - stats0.get(k, 0) for k in ("executed_items", "cache_hits")
            }
        if instrument is not None:
            instrument.remove()
            extra["gc_full"] = instrument.gc_full
            extra["cache_hit_s"] = cache_hit_times(wl, jobs)
    finally:
        if instrument is not None:
            instrument.remove()
        wl.close()
        probe.close()
    try:
        expected_digest = check(wl, jobs, results)
        kfrac = kernel_job_frac(wl, jobs)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    doc = summarize(name, results, setups, rss_mb)
    doc["kernel_job_frac"] = kfrac
    doc["expected_digest"] = expected_digest
    doc["setup_steps"] = steps
    if trace:
        import report

        doc["layers"] = report.layer_metrics(name, tracer, instrument.sims, results, extra)
        doc["trace_file"] = str(
            hermetic.RESULTS / f"{name}-seed{seed}.perfetto.json"
        )
        from spans import write_chrome_trace

        write_chrome_trace(tracer.spans, Path(doc["trace_file"]))
    return doc


def cache_hit_times(wl, jobs) -> list[float]:
    """Calibrated seconds of ``ExperimentRunner.run`` on cached keys."""
    out = []
    for call in wl.cache_hit_calls(jobs)[:20]:
        p0 = probe.probe()
        t0 = time.perf_counter()
        call()
        raw = time.perf_counter() - t0
        out.append(probe.calibrate(raw, (p0 + probe.probe()) / 2))
    return out


def summarize(name, results: list[JobResult], setups, rss_mb) -> dict[str, Any]:
    """The seven end-to-end metrics, raw twins and failure detail."""
    from workloads import JOB_TIMEOUT_S

    ok = [r for r in results if r.error is None]
    # a failed job misses any latency limit: it counts at the timeout
    cal = [r.cal_s if r.error is None else JOB_TIMEOUT_S for r in results]
    raw = [r.raw_s if r.error is None else JOB_TIMEOUT_S for r in results]
    wall = sum(r.cal_s for r in results)
    uops = sum(r.outcome.sim_uops for r in ok)
    setup_cal = [sum(s["cal_s"] for s in d["steps"]) for d in setups]
    setup_raw = [sum(s["raw_s"] for s in d["steps"]) for d in setups]
    attempted = len(results)
    failed = attempted - len(ok)
    metrics = {
        "setup_s": statistics.median(setup_cal) if setups else None,
        "wall_s": wall,
        "sim_uops_per_s": uops / wall if wall else 0.0,
        "job_latency_p50_s": percentile(cal, 50),
        "job_latency_p90_s": percentile(cal, 90),
        "peak_rss_mb": rss_mb,
        "ok_jobs_frac": (attempted - failed) / attempted,
    }
    raw_wall = sum(r.raw_s for r in results)
    io = [r.io_probe_s for r in results if r.io_probe_s is not None]
    return {
        "workload": name,
        "metrics": {k: metric(v, E2E[k]) for k, v in metrics.items() if v is not None},
        "raw": {
            "setup_s": statistics.median(setup_raw) if setups else None,
            "wall_s": raw_wall,
            "sim_uops_per_s": uops / raw_wall if raw_wall else 0.0,
            "job_latency_p50_s": percentile(raw, 50),
            "job_latency_p90_s": percentile(raw, 90),
        },
        "attempted": attempted,
        "failed": failed,
        "failures": [f"{r.job}: {r.error}" for r in results if r.error][:10],
        "jobs": attempted,
        "simulations": sum(r.outcome.sims for r in ok),
        "setup_runs": len(setups),
        "probe_median_s": statistics.median(r.probe_s for r in results),
        "io_probe_median_s": statistics.median(io) if io else None,
        "io_bound_jobs": len(io),
    }


# --------------------------------------------------------------------------- #
# output                                                                      #
# --------------------------------------------------------------------------- #


def print_summary(doc: dict[str, Any], out) -> None:
    name = doc["workload"]
    print(f"\n== {name}: {doc['jobs']} jobs, {doc['simulations']} simulations, "
          f"{doc['failed']} failed; setup_s = median of {doc['setup_runs']} "
          f"fresh-process set-ups ==", file=out)
    print(f"{'metric':<20} {'calibrated':>14} {'raw':>14}  unit", file=out)
    for key, m in doc["metrics"].items():
        raw = doc["raw"].get(key)
        raw_text = f"{raw:>14.6g}" if raw is not None else f"{'':>14}"
        print(f"{key:<20} {m['value']:>14.6g} {raw_text}  {m['unit']}", file=out)
    print(f"core.kernel_job_frac {doc['kernel_job_frac']:.3f}; median probe "
          f"{doc['probe_median_s'] * 1e3:.3f} ms (reference "
          f"{probe.REFERENCE_PROBE_S * 1e3:.3f} ms)", file=out)
    if doc["io_bound_jobs"]:
        print(f"{doc['io_bound_jobs']} jobs calibrated by the I/O probe; its median "
              f"{doc['io_probe_median_s'] * 1e3:.3f} ms (reference "
              f"{probe.REFERENCE_IO_PROBE_S * 1e3:.3f} ms)", file=out)
    for line in doc["failures"]:
        print(f"FAILED {line}", file=out)


def result_doc(docs: list[dict[str, Any]], args) -> dict[str, Any]:
    import oracle
    import provenance

    digests = {d["workload"]: d["expected_digest"] for d in docs}
    return {
        "provenance": provenance.collect(
            seed=args.seed,
            seconds=args.seconds,
            trace=args.trace,
            kernel_job_frac={d["workload"]: d["kernel_job_frac"] for d in docs},
            probe_median_s={d["workload"]: d["probe_median_s"] for d in docs},
            io_probe_median_s={d["workload"]: d["io_probe_median_s"] for d in docs},
            expected_digest=oracle.set_digest(digests),
        ),
        "correct": all(d["failed"] == 0 for d in docs),
        "attempted": sum(d["attempted"] for d in docs),
        "failed": sum(d["failed"] for d in docs),
        "workloads": {d["workload"]: d for d in docs},
    }


def contract_line(doc: dict[str, Any], trace: bool) -> dict[str, Any]:
    """The last stdout line: correct/attempted/failed and the metrics."""
    metrics: dict[str, Any] = {}
    single = len(doc["workloads"]) == 1
    for name, wdoc in doc["workloads"].items():
        block = wdoc["layers"]["metrics"] if trace else wdoc["metrics"]
        for key, m in block.items():
            metrics[key if single else f"{name}.{key}"] = m
    return {
        "correct": doc["correct"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": metrics,
    }


# --------------------------------------------------------------------------- #
# steadiness report                                                           #
# --------------------------------------------------------------------------- #


def steadiness(args, names: list[str]) -> dict[str, Any]:
    """Repeat each workload ``args.steadiness`` times, seeds ``seed+i``,
    each in a fresh process; report each metric's spread."""
    bounds = {m["name"]: m for m in _benchmark_spec().get("end_to_end", [])}
    report: dict[str, Any] = {"workloads": {}}
    runs: list[dict[str, Any]] = []
    for name in names:
        docs = []
        for i in range(args.steadiness):
            doc = _child(["--workload", name, "--seed", str(args.seed + i),
                          "--seconds", str(args.seconds), "--out", "-"], timeout=900)
            docs.append(doc["workloads"][name])
            runs.append(doc)
            m = doc["workloads"][name]["metrics"]
            print(f"{name} seed {args.seed + i}: " + ", ".join(
                f"{k}={v['value']:.5g}" for k, v in m.items()), file=sys.stderr)
        print(f"\n== {name}: {len(docs)} runs, seeds {args.seed}..{args.seed + len(docs) - 1}, "
              f"{statistics.median(d['jobs'] for d in docs):.0f} jobs per run "
              f"(p50/p90 over that many samples) ==")
        print(f"{'metric':<20} {'kind':<5} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'iqr/med':>8} {'cv':>7} {'max/min':>8} {'bound':>6}")
        summary = {}
        for key, unit in E2E.items():
            cal = [d["metrics"][key]["value"] for d in docs]
            rows = [("cal", cal)]
            if key in docs[0]["raw"] and docs[0]["raw"][key] is not None:
                rows.append(("raw", [d["raw"][key] for d in docs]))
            for kind, vals in rows:
                st = spread(vals)
                bound = bounds.get(key, {}).get("bound")
                print(f"{key:<20} {kind:<5} {st['median']:>12.6g} {st['q1']:>12.6g} "
                      f"{st['q3']:>12.6g} {st['iqr_frac']:>8.2%} {st['cv']:>7.2%} "
                      f"{st['max_min']:>8.3f} {'' if bound is None else f'{bound:.0%}':>6}")
            st = spread(cal)
            summary[key] = {"value": st["median"], "unit": unit, **st, "values": cal,
                            "raw_values": rows[1][1] if len(rows) > 1 else None}
        report["workloads"][name] = {"metrics": summary, "runs": len(docs)}
    import oracle

    first = runs[0]["provenance"]
    first["seed"] = f"{args.seed}..{args.seed + args.steadiness - 1}"
    first["expected_digest"] = oracle.set_digest(
        {str(i): r["provenance"]["expected_digest"] for i, r in enumerate(runs)}
    )
    report["provenance"] = first
    return report


def _benchmark_spec() -> dict[str, Any]:
    try:
        return json.loads((hermetic.ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return {}


# --------------------------------------------------------------------------- #
# expected records                                                            #
# --------------------------------------------------------------------------- #


def regen_expected(args, names: list[str]) -> int:
    """Re-run every job at the default seed on ``cloop``, cross-check each
    record against ``vectorized`` and rewrite ``expected/``."""
    import oracle
    import workloads
    from spans import NullTracer

    for name in names:
        run_dir = hermetic.scratch("regen-")
        wl = workloads.make(name, workloads.DEFAULT_SEED, args.seconds, run_dir)
        try:
            run_setup(wl.setup_steps(), NullTracer())
            jobs = wl.jobs()
            got: dict[str, str] = {}
            for job in jobs:
                got.update(wl.outcome(job, wl.run_job(job)).records)
        finally:
            wl.close()
        ref = wl.reference(jobs, set(got))
        shutil.rmtree(run_dir, ignore_errors=True)
        bad = sorted(k for k in got if got[k] != ref.get(k))
        if bad:
            for key in bad[:10]:
                print(f"{name}: cloop and vectorized disagree on {key}", file=sys.stderr)
            return 1
        path = oracle.save(
            name,
            {k: oracle.digest(v) for k, v in got.items()},
            f"seed {workloads.DEFAULT_SEED}, --seconds {args.seconds}: "
            "generated on cloop, identical on vectorized",
        )
        print(f"{name}: {len(got)} records agree on cloop and vectorized -> {path}")
    return 0


# --------------------------------------------------------------------------- #
# entry point                                                                 #
# --------------------------------------------------------------------------- #


def main(argv: list[str] | None = None) -> int:
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    help="fig2_ctable, fig6_fallback, service_sweeps or all")
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="write the full result here ('-': print it last)")
    ap.add_argument("--steadiness", type=int, metavar="N",
                    help="run each workload N times (seeds seed..seed+N-1) and "
                         "report the spread of every metric")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"),
                    help="compare two result files; refused across machines or inputs")
    ap.add_argument("--force", action="store_true", help="compare anyway")
    ap.add_argument("--regen-expected", action="store_true")
    ap.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--check-kernel", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--cold-child", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--skip-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.compare:
        import provenance

        a, b = (json.loads(Path(p).read_text()) for p in args.compare)
        bounds = {m["name"]: m for m in _benchmark_spec().get("end_to_end", [])}
        return provenance.compare(a, b, bounds, args.force)

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        ap.error(f"unknown workload {unknown[0]!r}; choose from "
                 f"{', '.join(workloads.WORKLOADS)} or all")
    try:
        hermetic.prepare()
    except hermetic.MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.setup_child:
        return setup_child(args)
    if args.cold_child:
        return cold_child(args)
    if args.regen_expected:
        return regen_expected(args, names)
    if args.steadiness:
        report = steadiness(args, names)
        out = Path(args.out) if args.out else hermetic.RESULTS / "steadiness.json"
        out.write_text(json.dumps(report, indent=1))
        print(f"\nsteadiness report: {out}")
        return 0

    docs = []
    try:
        for name in names:
            docs.append(measure(name, args.seed, args.seconds, bool(args.trace),
                                skip_setup=args.skip_setup))
    except ChildFailed as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return exc.code if exc.code not in (0, 1) else 4
    doc = result_doc(docs, args)
    if args.out == "-":
        print(json.dumps(doc))
        return 0
    report_out = sys.stdout
    for wdoc in docs:
        print_summary(wdoc, report_out)
        if args.trace:
            import report

            report.print_layers(wdoc["workload"], wdoc, report_out)
    out = Path(args.out) if args.out else (
        hermetic.RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    out.write_text(json.dumps(doc, indent=1))
    print(f"result: {out}")
    print(json.dumps(contract_line(doc, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
