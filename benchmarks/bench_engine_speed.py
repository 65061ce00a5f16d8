"""Engine microbenchmarks: simulator and generator throughput.

These are conventional pytest-benchmark timings (multiple rounds) rather
than figure reproductions — they track the performance of the cycle loop
and the trace generator across changes, and several assert bit-identity
against a reference engine in place.  Nothing is persisted: committed
speed figures come from ``perfbench/run.py``, which records repeats,
spread and provenance.
"""

import time

import pytest

from repro.config import baseline_config
from repro.core.processor import Processor
from repro.policies import make_policy
from repro.trace.categories import category_profile
from repro.trace.synthesis import SyntheticProgram, generate_trace


@pytest.fixture(scope="module")
def speed_log():
    """``{bench name: mean seconds}`` of this run, for benches that
    compare against another bench's mean (never written anywhere)."""
    return {}


def _record(speed_log, name, benchmark):
    stats = getattr(benchmark, "stats", None)
    if stats is not None:
        speed_log[name] = stats.stats.mean


def _traces(n_uops=4000):
    a = generate_trace(
        category_profile("ISPEC00", "ilp"), seed=3, n_uops=n_uops, kind="ilp"
    )
    b = generate_trace(
        category_profile("FSPEC00", "ilp"), seed=5, n_uops=n_uops, kind="ilp"
    )
    return [a, b]


def _mem_traces(n_uops=4000):
    a = generate_trace(
        category_profile("server", "mem"), seed=3, n_uops=n_uops, kind="mem"
    )
    b = generate_trace(
        category_profile("workstation", "mem"), seed=5, n_uops=n_uops, kind="mem"
    )
    return [a, b]


def bench_cycle_loop_icount(benchmark, speed_log):
    traces = _traces()
    config = baseline_config()

    def run():
        proc = Processor(config, make_policy("icount"), traces)
        proc.run_loop(100_000)
        return proc.stats.committed

    committed = benchmark(run)
    assert committed > 0
    _record(speed_log, "cycle_loop_icount", benchmark)


def bench_cycle_loop_cdprf(benchmark, speed_log):
    traces = _traces()
    config = baseline_config()

    def run():
        proc = Processor(config, make_policy("cdprf", interval=1024), traces)
        proc.run_loop(100_000)
        return proc.stats.committed

    committed = benchmark(run)
    assert committed > 0
    _record(speed_log, "cycle_loop_cdprf", benchmark)


#: Run-to-run noise allowance for the telemetry-off guard: the tel=None
#: path adds one predictable branch per cycle, so anything beyond timer
#: jitter against the CDPRF baseline is a real regression.
_NOISE_FACTOR = 1.25


def _mean_seconds(fn, rounds=3):
    """Mean wall time of ``rounds`` calls of ``fn``."""
    t0 = time.perf_counter()
    for _ in range(rounds):
        fn()
    return (time.perf_counter() - t0) / rounds


def bench_cycle_loop_telemetry_off(benchmark, speed_log):
    """CDPRF loop with the telemetry hook left at its default (``None``).

    Guards the zero-cost-when-off contract: with no :class:`Telemetry`
    attached the cycle loop pays a single ``is not None`` test per cycle,
    so the mean must stay within noise of the ``cycle_loop_cdprf``
    baseline.  The baseline is always measured in this run: the
    ``cycle_loop_cdprf`` mean when that bench ran first, else the same
    CDPRF loop timed here with an explicit ``telemetry=None``.
    """
    traces = _traces()
    config = baseline_config()

    def run():
        proc = Processor(config, make_policy("cdprf", interval=1024), traces)
        proc.run_loop(100_000)
        return proc.stats.committed

    def run_baseline():
        proc = Processor(
            config, make_policy("cdprf", interval=1024), traces, telemetry=None
        )
        proc.run_loop(100_000)

    committed = benchmark(run)
    assert committed > 0
    baseline = speed_log.get("cycle_loop_cdprf")
    if baseline is None:
        baseline = _mean_seconds(run_baseline)
    _record(speed_log, "cycle_loop_telemetry_off", benchmark)
    stats = getattr(benchmark, "stats", None)
    if baseline is not None and stats is not None:
        mean = stats.stats.mean
        assert mean <= baseline * _NOISE_FACTOR, (
            f"telemetry-off cycle loop regressed: {mean:.4f}s vs "
            f"{baseline:.4f}s baseline (>{_NOISE_FACTOR}x)"
        )


def bench_cycle_loop_telemetry_on(benchmark, speed_log):
    """Same CDPRF loop with interval sampling + event tracing enabled.

    Not guarded against the baseline — sampling has a real (small) cost;
    the recorded mean documents it next to ``cycle_loop_telemetry_off``.
    """
    from repro.telemetry import Telemetry, TelemetryConfig

    traces = _traces()
    config = baseline_config()
    tel_config = TelemetryConfig(sample_interval=1024)

    def run():
        tel = Telemetry(tel_config)
        proc = Processor(
            config, make_policy("cdprf", interval=1024), traces, telemetry=tel
        )
        proc.run_loop(100_000)
        return proc.stats.committed

    committed = benchmark(run)
    assert committed > 0
    _record(speed_log, "cycle_loop_telemetry_on", benchmark)


def bench_cycle_loop_mem_bound(benchmark, speed_log):
    """MEM-bound pair: exercises the MOB/L2-miss path the ILP pair skips."""
    traces = _mem_traces()
    config = baseline_config()

    def run():
        proc = Processor(config, make_policy("icount"), traces)
        proc.run_loop(200_000)
        return proc.stats.committed

    committed = benchmark(run)
    assert committed > 0
    _record(speed_log, "cycle_loop_mem_bound", benchmark)


def bench_cycle_loop_icount_vectorized(benchmark, speed_log):
    """The ILP pair of ``bench_cycle_loop_icount`` on the flattened SoA
    engine (same traces, same stop condition); the ratio of the two
    recorded means is the vectorized backend's speedup on its worst-case
    (compute-dense) workload."""
    from repro.core.vectorized import VectorizedProcessor

    traces = _traces()
    config = baseline_config()

    def run():
        proc = VectorizedProcessor(config, make_policy("icount"), traces)
        proc.run_loop(100_000)
        return proc.stats.committed

    committed = benchmark(run)
    assert committed > 0
    _record(speed_log, "cycle_loop_icount_vectorized", benchmark)


def bench_cycle_loop_mem_bound_vectorized(benchmark, speed_log):
    """The MEM-bound pair of ``bench_cycle_loop_mem_bound`` on the
    flattened SoA engine; pairs with that bench's recorded mean."""
    from repro.core.vectorized import VectorizedProcessor

    traces = _mem_traces()
    config = baseline_config()

    def run():
        proc = VectorizedProcessor(config, make_policy("icount"), traces)
        proc.run_loop(200_000)
        return proc.stats.committed

    committed = benchmark(run)
    assert committed > 0
    _record(speed_log, "cycle_loop_mem_bound_vectorized", benchmark)


def _identity_run(proc_cls, config, policy_name, traces, max_cycles):
    """Final stats of one run — the in-bench identity oracle for the
    ``cloop`` benches below (vectorized is itself gated bit-identical to
    the reference interpreter by the identity suite)."""
    kw = {"interval": 1024} if policy_name == "cdprf" else {}
    proc = proc_cls(config, make_policy(policy_name, **kw), traces)
    proc.run_loop(max_cycles)
    return proc.finalize_stats().as_dict()


def _bench_cloop(benchmark, speed_log, name, policy_name, traces, max_cycles):
    """Shared body of the ``cycle_loop_*_cloop`` benches: time the
    engine, then assert its stats are identical to the flattened
    engine's on the same scenario (a bench that silently diverged would
    record a meaningless speedup)."""
    from repro.core.cloop import CloopProcessor
    from repro.core.vectorized import VectorizedProcessor

    config = baseline_config()
    kw = {"interval": 1024} if policy_name == "cdprf" else {}

    def run():
        proc = CloopProcessor(config, make_policy(policy_name, **kw), traces)
        proc.run_loop(max_cycles)
        return proc

    proc = benchmark(run)
    assert proc.stats.committed > 0
    expect = _identity_run(VectorizedProcessor, config, policy_name, traces,
                           max_cycles)
    assert proc.finalize_stats().as_dict() == expect, (
        f"cloop diverged from vectorized on {name}"
    )
    _record(speed_log, name, benchmark)


def bench_cycle_loop_icount_cloop(benchmark, speed_log):
    """The ILP pair with the whole cycle loop resident in C; the ratio to
    ``cycle_loop_icount_vectorized`` is the tentpole number for the
    whole-loop engine (ISSUE 10 target: >=3x)."""
    _bench_cloop(benchmark, speed_log, "cycle_loop_icount_cloop", "icount",
                 _traces(), 100_000)


def bench_cycle_loop_mem_bound_cloop(benchmark, speed_log):
    _bench_cloop(benchmark, speed_log, "cycle_loop_mem_bound_cloop", "icount",
                 _mem_traces(), 200_000)


def bench_cycle_loop_cdprf_cloop(benchmark, speed_log):
    """CDPRF with its register rules, counters and interval ends running
    in the C policy table (the identity assert below covers them)."""
    _bench_cloop(benchmark, speed_log, "cycle_loop_cdprf_cloop", "cdprf",
                 _traces(), 100_000)


def bench_sweep_smoke(benchmark, speed_log):
    """Smoke-scale ExperimentRunner.sweep: the fan-out path end to end.

    A fresh uncached runner per round (sharing one prebuilt pool) so every
    round actually simulates; jobs resolve from REPRO_JOBS / cpu count like
    the figure benchmarks.
    """
    from repro.experiments.parallel import resolve_jobs
    from repro.experiments.runner import ExperimentRunner, figure2_config
    from repro.trace.workloads import build_pool

    config = figure2_config(32)
    pool = build_pool(n_uops=2500, n_ilp=1, n_mem=1, n_mix=0,
                      n_mixes_category=0, categories=("ISPEC00",))
    jobs = resolve_jobs()

    def run():
        runner = ExperimentRunner("smoke", pool=pool, jobs=jobs)
        return len(runner.sweep(config, ["icount", "cssp"]))

    n = benchmark.pedantic(run, rounds=2, iterations=1)
    assert n == 4
    _record(speed_log, "sweep_smoke", benchmark)


def _smoke_pool():
    from repro.trace.workloads import build_pool

    return build_pool(n_uops=2500, n_ilp=1, n_mem=1, n_mix=0,
                      n_mixes_category=0, categories=("ISPEC00",))


_SWEEP_POLICIES = ["icount", "cssp"]


def bench_sweep_smoke_jobs1(benchmark, speed_log):
    """The serial sweep reference the parallel engine is measured against."""
    from repro.experiments.runner import ExperimentRunner, figure2_config

    config = figure2_config(32)
    pool = _smoke_pool()

    def run():
        runner = ExperimentRunner("smoke", pool=pool, jobs=1)
        return len(runner.sweep(config, _SWEEP_POLICIES))

    n = benchmark.pedantic(run, rounds=2, iterations=1)
    assert n == 4
    _record(speed_log, "sweep_smoke_jobs1", benchmark)


def bench_sweep_smoke_jobs4(benchmark, speed_log):
    """The sweep engine at jobs=4: persistent pool, LPT dispatch.

    The first round pays worker spawn; later rounds reuse the warm pool,
    so the mean reflects steady-state sweep cost.  On a single-core host
    the ratio to ``sweep_smoke_jobs1`` mostly measures engine overhead;
    on a multicore host it measures real speedup.
    """
    from repro.experiments import parallel
    from repro.experiments.runner import ExperimentRunner, figure2_config

    parallel.shutdown()  # charge pool spawn to this bench, not a predecessor
    config = figure2_config(32)
    pool = _smoke_pool()

    def run():
        runner = ExperimentRunner("smoke", pool=pool, jobs=4)
        return len(runner.sweep(config, _SWEEP_POLICIES))

    n = benchmark.pedantic(run, rounds=3, iterations=1)
    assert n == 4
    _record(speed_log, "sweep_smoke_jobs4", benchmark)
    parallel.shutdown()


def bench_sweep_cached_rerun(benchmark, speed_log, tmp_path_factory):
    """A plain rerun of a finished sweep into its filled cache, nothing
    left to run: the cost of reading every key back from the cache."""
    from repro.experiments.runner import ExperimentRunner, figure2_config

    config = figure2_config(32)
    pool = _smoke_pool()
    cache_dir = tmp_path_factory.mktemp("rerun-bench")
    warm = ExperimentRunner("smoke", pool=pool, cache_dir=cache_dir)
    warm.sweep(config, _SWEEP_POLICIES)

    def run():
        runner = ExperimentRunner("smoke", pool=pool, cache_dir=cache_dir)
        result = runner.sweep(config, _SWEEP_POLICIES)
        assert runner.sims_run == 0
        return len(result)

    n = benchmark(run)
    assert n == 4
    _record(speed_log, "sweep_cached_rerun", benchmark)


def bench_trace_generation(benchmark):
    profile = category_profile("server", "mem")

    def gen():
        # use_cache=False: this bench times synthesis itself, not the
        # on-disk trace cache's load path
        return len(generate_trace(profile, seed=11, n_uops=20_000, use_cache=False))

    n = benchmark(gen)
    assert n == 20_000


def bench_program_construction(benchmark):
    profile = category_profile("office", "ilp")

    def build():
        return len(SyntheticProgram(profile, seed=7).blocks)

    blocks = benchmark(build)
    assert blocks == profile.n_blocks
