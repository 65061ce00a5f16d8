"""Command-line interface (``repro-sim``).

Subcommands:

* ``config``  — print the Table 1 baseline configuration;
* ``pool``    — print the Table 2 workload pool at a given scale;
* ``run``     — simulate one workload under one policy and dump statistics;
* ``figure``  — regenerate one of the paper's figures (2, 3, 4, 5, 6, 9,
  10, ``headline`` or ``table2``) and print the table;
* ``sweep``   — run an ad-hoc (policy × workload) sweep, locally or
  distributed over TCP workers (``--executor tcp``);
* ``worker``  — join a ``--executor tcp`` sweep as a remote worker;
* ``serve``   — run the simulation service (HTTP/JSON API over the
  worker pool with fair multi-tenant scheduling and request dedup);
* ``submit``  — submit a run or sweep to a running service and wait for
  (or stream) the result.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.config import baseline_config
from repro.core.backends import BACKENDS
from repro.core.simulator import run_workload
from repro.experiments import (
    ExperimentRunner,
    figure2_iq_throughput,
    figure3_copies,
    figure4_iq_stalls,
    figure5_imbalance,
    figure6_regfile,
    figure9_cdprf,
    figure10_fairness,
    headline_numbers,
    save_json,
    table2_workloads,
)
from repro.experiments.runner import SCALES
from repro.policies import POLICY_NAMES

_FIGURES = {
    "2": figure2_iq_throughput,
    "3": figure3_copies,
    "4": figure4_iq_stalls,
    "5": figure5_imbalance,
    "6": figure6_regfile,
    "9": figure9_cdprf,
    "10": figure10_fairness,
    "headline": headline_numbers,
    "table2": table2_workloads,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sim",
        description="Clustered-SMT resource assignment scheme simulator "
        "(Latorre et al., IPPS 2008 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("config", help="print the Table 1 baseline configuration")

    p_pool = sub.add_parser("pool", help="print the Table 2 workload pool")
    p_pool.add_argument("--scale", choices=sorted(SCALES), default="quick")

    p_run = sub.add_parser("run", help="simulate one workload under one policy")
    p_run.add_argument("--policy", choices=POLICY_NAMES, default="cdprf")
    p_run.add_argument("--category", default="mixes")
    p_run.add_argument("--index", type=int, default=0, help="workload index in category")
    p_run.add_argument("--scale", choices=sorted(SCALES), default="quick")
    p_run.add_argument("--iq-entries", type=int, default=32)
    p_run.add_argument("--regs", type=int, default=64)
    p_run.add_argument("--json", action="store_true", help="dump full stats as JSON")
    p_run.add_argument(
        "--telemetry-out",
        metavar="DIR",
        help="collect interval samples + event trace and export CSV/JSONL "
        "and a Perfetto trace into DIR",
    )
    p_run.add_argument(
        "--sample-interval",
        type=int,
        default=4096,
        metavar="N",
        help="telemetry sampling period in cycles (default 4096)",
    )
    p_run.add_argument(
        "--trace-events",
        action="store_true",
        help="also capture per-uop DEBUG events (steering redirects, "
        "mispredict resolutions) in the event trace",
    )
    p_run.add_argument(
        "--backend",
        choices=BACKENDS,
        default=None,
        help="cycle engine (default: REPRO_BACKEND or the built-in "
        "default); backends produce bit-identical results",
    )

    p_fig = sub.add_parser("figure", help="regenerate a figure of the paper")
    p_fig.add_argument("which", choices=sorted(_FIGURES))
    p_fig.add_argument("--scale", choices=sorted(SCALES), default="quick")
    p_fig.add_argument("--cache-dir", default=".repro-cache")
    p_fig.add_argument("--out", help="also write the result as JSON here")
    p_fig.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes (default: REPRO_JOBS or all cores)",
    )
    p_fig.add_argument(
        "--backend",
        choices=BACKENDS,
        default=None,
        help="cycle engine for every simulation of the sweep (default: "
        "REPRO_BACKEND or the built-in default); results and cache "
        "entries are bit-identical across backends",
    )
    _add_executor_args(p_fig)

    p_sweep = sub.add_parser(
        "sweep",
        help="run a (policy x workload) sweep, locally or over TCP workers",
    )
    p_sweep.add_argument(
        "--policy",
        action="append",
        choices=POLICY_NAMES,
        help="policy to sweep (repeatable; default: all policies)",
    )
    p_sweep.add_argument(
        "--category",
        action="append",
        help="workload category to sweep (repeatable; default: all)",
    )
    p_sweep.add_argument("--scale", choices=sorted(SCALES), default="quick")
    p_sweep.add_argument("--iq-entries", type=int, default=32)
    p_sweep.add_argument("--regs", type=int, default=None)
    p_sweep.add_argument("--unbounded-regs", action="store_true")
    p_sweep.add_argument("--unbounded-rob", action="store_true")
    p_sweep.add_argument("--cache-dir", default=".repro-cache")
    p_sweep.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="local worker processes (default: REPRO_JOBS or all cores); "
        "ignored with --executor tcp",
    )
    p_sweep.add_argument(
        "--backend",
        choices=BACKENDS,
        default=None,
        help="cycle engine for every simulation (default: REPRO_BACKEND "
        "or the built-in default)",
    )
    p_sweep.add_argument("--out", help="also write the result as JSON here")
    _add_executor_args(p_sweep)

    p_worker = sub.add_parser(
        "worker",
        help="join a running --executor tcp sweep as a remote worker",
    )
    p_worker.add_argument(
        "--connect",
        type=_endpoint_arg,
        required=True,
        metavar="HOST:PORT",
        help="coordinator endpoint printed by the sweep's announce line",
    )
    p_worker.add_argument(
        "--window",
        type=int,
        default=2,
        help="simulations to hold leased at once (default 2: one running, "
        "one prefetched)",
    )
    p_worker.add_argument(
        "--heartbeat",
        type=float,
        default=5.0,
        help="seconds between keepalive frames (default 5)",
    )
    p_worker.add_argument(
        "--connect-timeout",
        type=float,
        default=30.0,
        help="seconds to keep retrying the initial connect (default 30)",
    )

    p_serve = sub.add_parser(
        "serve",
        help="run the simulation service (HTTP/JSON API over the pool)",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port",
        type=int,
        default=8642,
        help="listen port (0 = pick a free port and print it)",
    )
    p_serve.add_argument("--cache-dir", default=".repro-service")
    p_serve.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="pool slots shared by all tenants "
        "(default: REPRO_JOBS or all cores)",
    )
    p_serve.add_argument(
        "--tenants",
        type=_tenants_arg,
        default=None,
        metavar="NAME[:WEIGHT],...",
        help="pre-registered tenant weights like alice:3,bob:1 "
        "(unknown tenants auto-register at weight 1)",
    )
    p_serve.add_argument(
        "--rate",
        type=_rate_arg,
        default=20.0,
        metavar="R",
        help="per-tenant request rate limit in req/s; 0 disables "
        "(default 20)",
    )
    p_serve.add_argument(
        "--burst",
        type=float,
        default=None,
        metavar="B",
        help="token-bucket burst capacity (default: max(1, rate))",
    )
    p_serve.add_argument(
        "--queue",
        type=int,
        default=64,
        metavar="N",
        help="per-tenant queued-job bound; overflow answers 429 "
        "(default 64)",
    )
    p_serve.add_argument(
        "--executor",
        choices=("process", "thread"),
        default="process",
        help="how simulations run: the persistent worker pool (default) "
        "or in-process threads (tests/debugging)",
    )
    p_serve.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default="quick",
        help="default scale for requests that omit one",
    )

    p_submit = sub.add_parser(
        "submit",
        help="submit a job to a running service and wait for the result",
    )
    p_submit.add_argument("kind", choices=("run", "sweep"))
    p_submit.add_argument("--host", default="127.0.0.1")
    p_submit.add_argument("--port", type=int, default=8642)
    p_submit.add_argument("--tenant", default="default")
    p_submit.add_argument("--policy", action="append", choices=POLICY_NAMES)
    p_submit.add_argument("--category", action="append")
    p_submit.add_argument("--scale", choices=sorted(SCALES), default=None)
    p_submit.add_argument("--iq-entries", type=int, default=32)
    p_submit.add_argument("--regs", type=int, default=None)
    p_submit.add_argument("--unbounded-regs", action="store_true")
    p_submit.add_argument("--unbounded-rob", action="store_true")
    p_submit.add_argument(
        "--index", type=int, default=0, help="run kind: workload index"
    )
    p_submit.add_argument(
        "--stream",
        action="store_true",
        help="print NDJSON progress events while waiting",
    )
    p_submit.add_argument(
        "--no-wait",
        action="store_true",
        help="print the accepted job document and exit immediately",
    )
    p_submit.add_argument(
        "--timeout",
        type=float,
        default=3600.0,
        help="seconds to wait for completion (default 3600)",
    )
    return parser


def _add_executor_args(parser: argparse.ArgumentParser) -> None:
    """The sweep-executor flags shared by ``figure`` and ``sweep``."""
    parser.add_argument(
        "--executor",
        choices=("local", "tcp"),
        default=None,
        help="where cache misses run: the local process pool (default, "
        "or REPRO_EXECUTOR) or remote TCP workers started with "
        "'repro-sim worker --connect HOST:PORT'",
    )
    parser.add_argument(
        "--bind",
        type=_endpoint_arg,
        default=("127.0.0.1", 0),
        metavar="HOST:PORT",
        help="tcp executor: coordinator listen endpoint (default "
        "127.0.0.1:0 = loopback, free port; the chosen port is "
        "announced on stderr)",
    )
    parser.add_argument(
        "--lease-timeout",
        type=float,
        default=30.0,
        metavar="S",
        help="tcp executor: seconds of worker silence before its leased "
        "items are re-queued (default 30)",
    )


def _endpoint_arg(value: str) -> tuple[str, int]:
    host, sep, port = value.rpartition(":")
    if not sep or not host:
        raise argparse.ArgumentTypeError(
            f"endpoint {value!r} is not HOST:PORT"
        )
    try:
        return host, int(port)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"port in {value!r} is not an integer"
        ) from None


def _fabric_settings(args: argparse.Namespace):
    """FabricSettings from --bind/--lease-timeout, or None for local."""
    from repro.fabric import FabricSettings, resolve_executor

    if resolve_executor(args.executor) != "tcp":
        return None
    host, port = args.bind
    return FabricSettings(
        host=host, port=port, lease_timeout=args.lease_timeout
    )


def _tenants_arg(value: str) -> dict[str, float]:
    from repro.service.scheduler import parse_tenants

    try:
        return parse_tenants(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _rate_arg(value: str) -> float | None:
    try:
        rate = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"rate {value!r} is not a number; pass req/s like --rate 20 "
            "(0 disables rate limiting)"
        ) from None
    if rate < 0:
        raise argparse.ArgumentTypeError(
            f"rate must be >= 0, got {rate} (0 disables rate limiting)"
        )
    return rate or None


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.parallel import resolve_jobs

    runner = ExperimentRunner(
        args.scale,
        cache_dir=args.cache_dir,
        jobs=resolve_jobs(args.jobs),
        backend=args.backend,
        executor=args.executor,
        fabric=_fabric_settings(args),
    )
    policies = args.policy or list(POLICY_NAMES)
    if args.category:
        workloads = []
        for category in args.category:
            group = runner.pool.by_category(category)
            if not group:
                print(
                    f"no workloads in category {category!r}", file=sys.stderr
                )
                return 1
            workloads.extend(group)
    else:
        workloads = list(runner.pool)
    config = baseline_config(
        unbounded_regs=args.unbounded_regs,
        unbounded_rob=args.unbounded_rob,
    ).with_iq_entries(args.iq_entries)
    if args.regs is not None:
        config = config.with_regs(args.regs)
    try:
        results = runner.sweep(config, policies, workloads, label="sweep")
    finally:
        if runner.executor == "tcp":
            # Tell connected workers to exit instead of leaving them
            # blocked on a socket that closes only at interpreter exit.
            from repro import fabric

            fabric.shutdown()
    rows = sorted(
        (policy, f"{category}/{name}", rec.ipc)
        for (policy, category, name), rec in results.items()
    )
    width = max(len(wl) for _, wl, _ in rows)
    for policy, workload, ipc in rows:
        print(f"{policy:<8} {workload:<{width}} IPC {ipc:.3f}")
    print(
        f"\n[{runner.sims_run} simulations run, "
        f"{runner.cache_hits} cache hits]"
    )
    if args.out:
        save_json(
            args.out,
            {
                "scale": runner.scale.name,
                "iq_entries": args.iq_entries,
                "results": [
                    {
                        "policy": policy,
                        "workload": workload,
                        "ipc": round(ipc, 6),
                    }
                    for policy, workload, ipc in rows
                ],
            },
        )
        print(f"JSON written to {args.out}")
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.fabric.worker import run_worker

    host, port = args.connect
    return run_worker(
        host,
        port,
        window=args.window,
        heartbeat=args.heartbeat,
        connect_timeout=args.connect_timeout,
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.experiments.parallel import resolve_jobs
    from repro.service.server import Service, ServiceSettings

    settings = ServiceSettings(
        host=args.host,
        port=args.port,
        cache_dir=args.cache_dir,
        slots=resolve_jobs(args.jobs),
        tenants=args.tenants or {},
        rate=args.rate,
        burst=args.burst,
        max_queue=args.queue,
        executor=args.executor,
        default_scale=args.scale,
    )
    service = Service(settings)

    def _announce(svc: Service) -> None:
        print(
            f"[repro] serving on http://{settings.host}:{svc.port} "
            f"({settings.slots} slots, executor={settings.executor}, "
            f"cache={settings.cache_dir})",
            file=sys.stderr,
            flush=True,
        )

    asyncio.run(service.serve_forever(on_ready=_announce))
    print("[repro] service stopped; state saved", file=sys.stderr)
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient, ServiceError

    spec: dict = {"iq_entries": args.iq_entries, "index": args.index}
    if args.scale:
        spec["scale"] = args.scale
    if args.policy:
        spec["policies"] = args.policy
    if args.category:
        spec["categories"] = args.category
    if args.regs is not None:
        spec["regs"] = args.regs
    if args.unbounded_regs:
        spec["unbounded_regs"] = True
    if args.unbounded_rob:
        spec["unbounded_rob"] = True
    if args.kind == "run":
        if len(spec.get("policies", [])) == 1:
            spec["policy"] = spec.pop("policies")[0]
        if len(spec.get("categories", [])) == 1:
            spec["category"] = spec.pop("categories")[0]
    else:
        spec.pop("index", None)

    client = ServiceClient(
        host=args.host, port=args.port, tenant=args.tenant
    )
    try:
        submit = (
            client.submit_run if args.kind == "run" else client.submit_sweep
        )
        job = submit(spec, retries=5)
        if args.no_wait:
            print(json.dumps(job, indent=1))
            return 0
        if args.stream:
            for event in client.stream(job["id"], timeout=args.timeout):
                print(json.dumps(event), file=sys.stderr, flush=True)
        final = client.wait(job["id"], timeout=args.timeout)
        print(json.dumps(final, indent=1))
        return 0
    except (ServiceError, TimeoutError, ConnectionError, OSError) as exc:
        print(f"[repro] submit failed: {exc}", file=sys.stderr)
        return 1


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)

    if args.command == "config":
        print(baseline_config().describe())
        return 0

    if args.command == "pool":
        runner = ExperimentRunner(args.scale)
        print(runner.pool.summary())
        return 0

    if args.command == "run":
        runner = ExperimentRunner(args.scale)
        workloads = runner.pool.by_category(args.category)
        if not workloads:
            print(f"no workloads in category {args.category!r}", file=sys.stderr)
            return 1
        wl = workloads[args.index % len(workloads)]
        config = (
            baseline_config().with_iq_entries(args.iq_entries).with_regs(args.regs)
        )
        tel = None
        if args.telemetry_out:
            from repro.telemetry import Severity, Telemetry, TelemetryConfig

            tel = Telemetry(
                TelemetryConfig(
                    sample_interval=args.sample_interval,
                    min_severity=(
                        Severity.DEBUG if args.trace_events else Severity.INFO
                    ),
                )
            )
        res = run_workload(
            config,
            runner._make_policy(args.policy),
            wl,
            warmup_uops=runner.scale.warmup_uops,
            prewarm_caches=True,
            max_cycles=runner.scale.max_cycles,
            telemetry=tel,
            backend=args.backend,
        )
        if tel is not None:
            paths = tel.export(
                args.telemetry_out,
                meta={"policy": res.policy, "workload": res.workload},
            )
            assert tel.sampler.columns is not None
            print(
                f"[repro] telemetry: {len(tel.sampler.columns)} samples, "
                f"{len(tel.events)} events -> "
                f"{', '.join(sorted(p.name for p in paths.values()))} "
                f"in {args.telemetry_out}",
                file=sys.stderr,
            )
        if args.json:
            print(json.dumps(res.stats, indent=1, default=str))
        else:
            print(f"workload   {res.workload}")
            print(f"policy     {res.policy}")
            print(f"cycles     {res.cycles}")
            print(f"committed  {res.committed} {list(res.committed_per_thread)}")
            print(f"IPC        {res.ipc:.3f}")
            print(f"copies/ci  {res.stats['copies_per_committed']:.3f}")
            print(f"iqstall/ci {res.stats['iq_stalls_per_committed']:.3f}")
        return 0

    if args.command == "figure":
        from repro.experiments.parallel import resolve_jobs

        runner = ExperimentRunner(
            args.scale,
            cache_dir=args.cache_dir,
            jobs=resolve_jobs(args.jobs),
            backend=args.backend,
            executor=args.executor,
            fabric=_fabric_settings(args),
        )
        try:
            fig = _FIGURES[args.which](runner)
        finally:
            if runner.executor == "tcp":
                from repro import fabric

                fabric.shutdown()
        print(fig.render())
        print(f"\n[{runner.sims_run} simulations run, {runner.cache_hits} cache hits]")
        if args.out:
            save_json(args.out, fig.as_dict())
            print(f"JSON written to {args.out}")
        return 0

    if args.command == "sweep":
        return _cmd_sweep(args)

    if args.command == "worker":
        return _cmd_worker(args)

    if args.command == "serve":
        return _cmd_serve(args)

    if args.command == "submit":
        return _cmd_submit(args)

    return 1  # pragma: no cover - argparse enforces choices


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
