"""The shared on-disk trace-synthesis cache.

Synthesis is deterministic, so a cached entry must be bit-identical to a
fresh emission; the cache must also survive hostile disk states (truncated
or garbage entries) by regenerating, and stay fully disabled when the
environment says so.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.parallel import TraceSpec
from repro.trace import cache
from repro.trace.categories import category_profile
from repro.trace.synthesis import TraceProfile, generate_trace

PROFILE = TraceProfile(name="cache-test", n_blocks=16, working_set_lines=64)


@pytest.fixture()
def cache_env(tmp_path, monkeypatch):
    """A private, empty cache directory for one test."""
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "traces"))
    cache.reset_stats()
    yield tmp_path / "traces"
    cache.reset_stats()


def test_cold_miss_then_hit(cache_env):
    first = generate_trace(PROFILE, seed=7, n_uops=500)
    assert cache.stats["misses"] == 1
    assert cache.stats["stores"] == 1
    assert cache.stats["hits"] == 0
    assert len(list(cache_env.glob("*.npy"))) == 1

    second = generate_trace(PROFILE, seed=7, n_uops=500)
    assert cache.stats["hits"] == 1
    assert np.array_equal(first.records, second.records)


def test_key_distinguishes_inputs(cache_env):
    k = cache.trace_key(PROFILE, seed=7, n_uops=500)
    assert k != cache.trace_key(PROFILE, seed=8, n_uops=500)
    assert k != cache.trace_key(PROFILE, seed=7, n_uops=501)
    other = TraceProfile(name="cache-test", n_blocks=16, working_set_lines=65)
    assert k != cache.trace_key(other, seed=7, n_uops=500)
    # a second call with identical inputs is stable
    assert k == cache.trace_key(PROFILE, seed=7, n_uops=500)


def test_corrupt_entry_recovers(cache_env):
    reference = generate_trace(PROFILE, seed=7, n_uops=500)
    entry = next(cache_env.glob("*.npy"))
    entry.write_bytes(b"this is not a numpy archive")

    cache.reset_stats()
    regenerated = generate_trace(PROFILE, seed=7, n_uops=500)
    assert cache.stats["hits"] == 0
    assert cache.stats["misses"] == 1
    assert cache.stats["stores"] == 1  # re-stored after regeneration
    assert np.array_equal(regenerated.records, reference.records)
    # and the re-stored entry is valid again
    cache.reset_stats()
    generate_trace(PROFILE, seed=7, n_uops=500)
    assert cache.stats["hits"] == 1


def test_truncated_entry_recovers(cache_env):
    reference = generate_trace(PROFILE, seed=7, n_uops=500)
    entry = next(cache_env.glob("*.npy"))
    blob = entry.read_bytes()
    entry.write_bytes(blob[: len(blob) // 2])

    cache.reset_stats()
    regenerated = generate_trace(PROFILE, seed=7, n_uops=500)
    assert cache.stats["misses"] == 1
    assert np.array_equal(regenerated.records, reference.records)


def test_wrong_length_entry_is_dropped(cache_env):
    generate_trace(PROFILE, seed=7, n_uops=500)
    key = cache.trace_key(PROFILE, seed=7, n_uops=500)
    # same key claimed, wrong payload length: must not be served
    assert cache.load_records(key, n_uops=400) is None
    assert not list(cache_env.glob("*.npy"))  # dropped, not kept


def test_disabled_by_env(tmp_path, monkeypatch):
    for off in ("0", "off", ""):
        monkeypatch.setenv("REPRO_TRACE_CACHE", off)
        assert cache.cache_dir() is None
        cache.reset_stats()
        tr = generate_trace(PROFILE, seed=3, n_uops=300)
        assert len(tr) == 300
        assert cache.stats == {"hits": 0, "misses": 0, "stores": 0}


def test_clear(cache_env):
    generate_trace(PROFILE, seed=7, n_uops=500)
    generate_trace(PROFILE, seed=8, n_uops=500)
    assert cache.clear() == 2
    assert not list(cache_env.glob("*.npy"))


def test_hit_is_memory_mapped(cache_env):
    """Cache hits come back as read-only memory maps: sweep workers loading
    the same trace share one copy in the OS page cache."""
    generate_trace(PROFILE, seed=7, n_uops=500)
    key = cache.trace_key(PROFILE, seed=7, n_uops=500)
    records = cache.load_records(key, n_uops=500)
    assert records is not None
    assert isinstance(records, np.memmap)
    with pytest.raises((ValueError, OSError)):
        records["pc"][0] = 1  # read-only mapping


def test_clear_removes_legacy_npz(cache_env):
    generate_trace(PROFILE, seed=7, n_uops=500)
    cache_env.joinpath("deadbeef.npz").write_bytes(b"legacy v1 entry")
    assert cache.clear() == 2
    assert not list(cache_env.iterdir())


def test_trace_spec_build_loads_from_cache(cache_env):
    """The sweep workers' ``TraceSpec.build`` path is served by the cache:
    the first build synthesizes and stores, the second loads from disk."""
    profile = category_profile("server", "mem")
    original = generate_trace(
        profile, seed=13, n_uops=800, name="server-13", category="server", kind="mem"
    )
    assert cache.stats["stores"] == 1

    cache.reset_stats()
    rebuilt = TraceSpec.of(original).build()
    assert cache.stats["hits"] == 1
    assert cache.stats["misses"] == 0
    assert np.array_equal(rebuilt.records, original.records)
    assert rebuilt.name == original.name
