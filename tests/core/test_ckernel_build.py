"""The on-demand kernel build: compiler flags are part of the cache key.

``REPRO_CKERNEL_CFLAGS`` selects the flags every C kernel is built with
(``-O2`` when unset), e.g. a sanitizer build for CI.  A build with other
flags must land beside the default one, never reuse it.
"""

from __future__ import annotations

import os
import subprocess

import pytest

from repro.core.ckernel import _find_compiler, build_shared_lib

_SOURCE = "int repro_probe(void) { return 1; }\n"


@pytest.fixture
def cache(tmp_path, monkeypatch):
    if _find_compiler() is None:
        pytest.skip("no C compiler (cc/gcc/clang) on PATH")
    monkeypatch.setenv("REPRO_CKERNEL_CACHE", str(tmp_path))
    monkeypatch.delenv("REPRO_CKERNEL_CFLAGS", raising=False)
    return tmp_path


def test_cflags_key_the_cache(cache, monkeypatch):
    default = build_shared_lib(_SOURCE, "probe")
    monkeypatch.setenv("REPRO_CKERNEL_CFLAGS", "  ")
    assert build_shared_lib(_SOURCE, "probe") == default  # blank = default
    monkeypatch.setenv("REPRO_CKERNEL_CFLAGS", "-O0 -g")
    debug = build_shared_lib(_SOURCE, "probe")
    assert debug != default
    assert os.path.exists(default) and os.path.exists(debug)


def test_cflags_reach_the_compiler(cache, monkeypatch):
    monkeypatch.setenv("REPRO_CKERNEL_CFLAGS", "-fno-such-flag-for-repro")
    with pytest.raises(subprocess.CalledProcessError):
        build_shared_lib(_SOURCE, "probe")
