"""Seeded randomized cross-backend property test.

The hand-written identity suite (:mod:`tests.core.test_backend_identity`)
pins known-interesting scenarios; this module draws *random* ones.  Each
case derives a machine configuration, a policy, and a pair of synthetic
traces from a seeded :class:`random.Random`, runs it on every registered
backend, and requires bit-identical statistics against the reference
oracle.  The draws are deterministic (fixed seeds), so a failure is a
reproducible counterexample: re-run with the printed seed and bisect.

Randomizing configuration corners (queue sizes, register files, thread
counts, wrong-path modeling, unbounded resources) is what catches the
interactions the curated suite doesn't think to combine — e.g. a tiny
issue queue under an adaptive policy with indirect-branch-heavy traces.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.config import baseline_config
from repro.core.backends import BACKENDS
from repro.core.simulator import run_simulation
from repro.policies import POLICY_NAMES, make_policy
from repro.trace.synthesis import TraceProfile, generate_trace

ALT_BACKENDS = [b for b in BACKENDS if b != "reference"]

#: One test case per seed; keep the list short — every case runs
#: ``1 + len(ALT_BACKENDS)`` full simulations.
SEEDS = [101, 202, 303, 404, 505, 606]


def _random_profile(rng: random.Random, name: str) -> TraceProfile:
    return TraceProfile(
        name=name,
        frac_load=rng.uniform(0.1, 0.35),
        frac_store=rng.uniform(0.04, 0.15),
        frac_branch=rng.uniform(0.05, 0.18),
        frac_indirect=rng.choice([0.0, 0.0, rng.uniform(0.05, 0.3)]),
        indirect_targets=rng.randint(2, 8),
        frac_complex=rng.choice([0.0, rng.uniform(0.01, 0.06)]),
        dep_mean_distance=rng.uniform(3.0, 12.0),
        dep_locality=rng.uniform(0.2, 0.6),
        working_set_lines=rng.choice([150, 600, 4_000, 120_000]),
        stride_frac=rng.uniform(0.3, 0.8),
        load_dep_chain=rng.choice([0.0, rng.uniform(0.1, 0.4)]),
        branch_bias=rng.uniform(0.8, 0.97),
        int_regs_used=rng.randint(8, 14),
        fp_regs_used=rng.randint(2, 12),
        n_blocks=rng.randint(16, 56),
    )


def _random_case(seed: int):
    rng = random.Random(seed)
    config = baseline_config(
        unbounded_regs=rng.random() < 0.2,
        unbounded_rob=rng.random() < 0.2,
        model_wrong_path=rng.random() < 0.85,
        rob_entries_per_thread=rng.choice([48, 96, 128]),
    )
    if rng.random() < 0.5:
        config = config.with_iq_entries(rng.choice([12, 20, 32]))
    if rng.random() < 0.4:
        config = config.with_regs(rng.choice([40, 56, 64]))
    num_threads = rng.choice([1, 2, 2])
    config = config.with_threads(num_threads)
    kinds = [rng.choice(["ilp", "mem", "mix"]) for _ in range(num_threads)]
    traces = [
        generate_trace(
            _random_profile(rng, f"prop-{seed}-{i}"),
            seed=rng.randint(0, 2**31),
            n_uops=rng.randint(1_500, 3_000),
            kind=kind,
        )
        for i, kind in enumerate(kinds)
    ]
    policy_name = rng.choice(POLICY_NAMES)
    policy_kw = {"interval": 1024} if policy_name == "cdprf" else {}
    # an unused draw: dropping it would shift every later draw and so
    # change the scenario each seed stands for
    rng.random()
    run_kw = {
        "warmup_uops": rng.choice([0, 300]),
        "prewarm_caches": rng.random() < 0.7,
        "max_cycles": 60_000,
    }
    return config, policy_name, policy_kw, traces, run_kw


@pytest.mark.parametrize("seed", SEEDS)
def test_random_scenario_identical_across_backends(seed):
    config, policy_name, policy_kw, traces, run_kw = _random_case(seed)
    results = {}
    for backend in ("reference", *ALT_BACKENDS):
        results[backend] = run_simulation(
            config,
            make_policy(policy_name, **policy_kw),
            list(traces),
            backend=backend,
            **run_kw,
        )
    ref = results["reference"]
    label = f"seed={seed} policy={policy_name} cfg={dataclasses.asdict(config)}"
    for backend in ALT_BACKENDS:
        got = results[backend]
        assert got.cycles == ref.cycles, f"{backend} diverged: {label}"
        assert got.committed == ref.committed, f"{backend} diverged: {label}"
        assert got.committed_per_thread == ref.committed_per_thread, (
            f"{backend} diverged: {label}"
        )
        assert got.ipc == ref.ipc, f"{backend} diverged: {label}"
        assert got.stats == ref.stats, f"{backend} diverged: {label}"
