#!/usr/bin/env python
"""One-command profile of a single simulation.

Runs one configurable sim under cProfile and prints the top-N hot
functions (cumulative and tottime orders) to stdout, writing the raw
profile to a ``.pstats`` artifact for later digging
(``python -m pstats`` or snakeviz).  With ``--line``, also line-profiles
the engine's hot methods via ``line_profiler`` when that optional
dependency is installed (the baked-in toolchain does not ship it; the
flag degrades to a clear message instead of an ImportError).

With ``--compare``, profiles the same simulation once per backend and
prints a side-by-side cumulative-time table — the quickest way to see
*where* one engine spends time the others don't.  Backends that run the
machine in bounded compiled regions (``cloop``) also report their
region-exit tallies, so a comparison shows how often the kernel
re-entered Python and why.

Examples::

    python scripts/profile_sim.py                         # vectorized icount/ilp
    python scripts/profile_sim.py --backend cloop --policy cdprf
    python scripts/profile_sim.py --kind mem --max-cycles 200000 --top 40
    python scripts/profile_sim.py --compare               # all backends, side by side
    python scripts/profile_sim.py --compare vectorized,cloop --kind mem
    python scripts/profile_sim.py --line                  # needs line_profiler
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.config import baseline_config
from repro.core.backends import BACKENDS, processor_class, resolve_backend
from repro.policies import POLICY_NAMES, make_policy
from repro.trace.categories import category_profile
from repro.trace.synthesis import generate_trace


def build_traces(kind: str, n_uops: int):
    if kind == "ilp":
        pairs = (("ISPEC00", "ilp"), ("FSPEC00", "ilp"))
    elif kind == "mem":
        pairs = (("server", "mem"), ("workstation", "mem"))
    else:  # mix
        pairs = (("ISPEC00", "ilp"), ("server", "mem"))
    return [
        generate_trace(category_profile(cat, k), seed=3 + 2 * i, n_uops=n_uops, kind=k)
        for i, (cat, k) in enumerate(pairs)
    ]


def make_run(args):
    config = baseline_config()
    traces = build_traces(args.kind, args.n_uops)
    proc_cls = processor_class(resolve_backend(args.backend))
    policy_kw = {"interval": 1024} if args.policy == "cdprf" else {}

    def run():
        proc = proc_cls(config, make_policy(args.policy, **policy_kw), traces)
        proc.run_loop(args.max_cycles)
        return proc

    return run


def line_profile(args, run) -> int:
    try:
        from line_profiler import LineProfiler
    except ImportError:
        print(
            "line_profiler is not installed; rerun without --line or "
            "install it in an environment that allows it",
            file=sys.stderr,
        )
        return 2
    from repro.core import processor, vectorized

    lp = LineProfiler()
    backend = resolve_backend(args.backend)
    if backend == "vectorized":
        lp.add_function(vectorized.VectorizedProcessor.run_loop)
    elif backend == "cloop":
        from repro.core import cloop as cloop_mod

        # the whole loop lives in C; the Python time worth line-profiling
        # is context construction/marshal and the per-region export
        lp.add_function(cloop_mod.CloopProcessor._region)
        lp.add_function(cloop_mod._CloopContext.__init__)
        lp.add_function(cloop_mod._CloopContext.export)
    else:
        for fn in (
            processor.Processor.step,
            processor.Processor._issue,
            processor.Processor._rename_one,
            processor.Processor._dispatch_uop,
            processor.Processor._commit,
            processor.Processor._fetch,
        ):
            lp.add_function(fn)
    lp.runcall(run)
    lp.print_stats()
    return 0


def _region_exits_line(proc) -> str | None:
    """``"limit=3 done=1 watchdog=0"`` for region-driven backends, else None."""
    exits = getattr(proc, "region_exits", None)
    if exits is None:
        return None
    return " ".join(f"{reason}={count}" for reason, count in exits.items())


def _func_label(func, width=44) -> str:
    filename, lineno, name = func
    if filename == "~":
        label = name.strip("<>")
    else:
        label = f"{Path(filename).name}:{lineno}({name})"
    return label if len(label) <= width else label[: width - 1] + "…"


def compare(args) -> int:
    """Profile the same simulation on several backends; print wall-clock
    summary and a side-by-side top-N cumulative-time table."""
    backends = args.compare
    summary = []
    tops = {}
    for backend in backends:
        sub = argparse.Namespace(**{**vars(args), "backend": backend})
        run = make_run(sub)
        run()  # warm caches / build the kernel outside the profiled run
        prof = cProfile.Profile()
        t0 = time.perf_counter()
        proc = prof.runcall(run)
        wall = time.perf_counter() - t0
        st = pstats.Stats(prof)
        summary.append(
            (backend, wall, proc.stats.cycles, proc.stats.committed,
             _region_exits_line(proc))
        )
        tops[backend] = sorted(
            ((func, stat[3]) for func, stat in st.stats.items()),
            key=lambda kv: -kv[1],
        )[: args.top]

    print(f"policy={args.policy} kind={args.kind} n_uops={args.n_uops}\n")
    print(f"{'backend':<12} {'wall ms':>9} {'cycles':>9} {'committed':>10}")
    base = summary[0][1]
    for backend, wall, cycles, committed, _ in summary:
        rel = f"  ({wall / base:4.2f}x)" if backend != summary[0][0] else ""
        print(f"{backend:<12} {wall * 1e3:9.2f} {cycles:9d} {committed:10d}{rel}")
    for backend, _, _, _, exits in summary:
        if exits is not None:
            print(f"\n{backend} region exits: {exits}")

    colw = 54
    print(f"\n== top {args.top} by cumtime, side by side ==")
    print("".join(f"{b:<{colw}}" for b in backends))
    for i in range(args.top):
        cells = []
        for b in backends:
            if i < len(tops[b]):
                func, ct = tops[b][i]
                cells.append(f"{ct:7.3f}s {_func_label(func)}")
            else:
                cells.append("")
        print("".join(f"{c:<{colw}}" for c in cells))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--backend", default=None, choices=BACKENDS,
                    help="engine to profile (default: resolved backend)")
    ap.add_argument("--compare", nargs="?", const=",".join(BACKENDS),
                    default=None, metavar="B1,B2,...",
                    help="profile several backends (default: all registered) "
                    "and print a side-by-side cumtime table")
    ap.add_argument("--policy", default="icount", choices=POLICY_NAMES)
    ap.add_argument("--kind", default="ilp", choices=("ilp", "mem", "mix"),
                    help="workload pair to simulate")
    ap.add_argument("--n-uops", type=int, default=4000)
    ap.add_argument("--max-cycles", type=int, default=100_000)
    ap.add_argument("--top", type=int, default=25,
                    help="rows to print per ordering")
    ap.add_argument("--out", type=Path, default=None,
                    help="pstats artifact path (default: profile_<backend>_<policy>_<kind>.pstats)")
    ap.add_argument("--line", action="store_true",
                    help="line-profile the engine hot paths (needs line_profiler)")
    args = ap.parse_args(argv)

    if args.compare is not None:
        names = [resolve_backend(b) for b in args.compare.split(",") if b.strip()]
        if not names:
            ap.error("--compare needs at least one backend name")
        args.compare = names
        return compare(args)

    run = make_run(args)
    run()  # warm trace/JIT-free caches so the profile measures steady state

    if args.line:
        return line_profile(args, run)

    backend = resolve_backend(args.backend)
    out = args.out or Path(f"profile_{backend}_{args.policy}_{args.kind}.pstats")
    prof = cProfile.Profile()
    proc = prof.runcall(run)
    prof.dump_stats(out)

    print(f"backend={backend} policy={args.policy} kind={args.kind} "
          f"cycles={proc.stats.cycles} committed={proc.stats.committed}")
    exits = _region_exits_line(proc)
    if exits is not None:
        print(f"region exits: {exits}")
    print(f"pstats artifact: {out}\n")
    stats = pstats.Stats(prof, stream=sys.stdout)
    for order in ("cumulative", "tottime"):
        print(f"== top {args.top} by {order} ==")
        stats.sort_stats(order).print_stats(args.top)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
