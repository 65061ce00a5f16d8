"""The on-demand kernel build: compiler flags are part of the cache key,
and a failed build is tried once per process.

``REPRO_CKERNEL_CFLAGS`` selects the flags every C kernel is built with
(``-O2`` when unset), e.g. a sanitizer build for CI.  A build with other
flags must land beside the default one, never reuse it.
"""

from __future__ import annotations

import os
import subprocess

import pytest

from repro.core import ckernel
from repro.core.backends import make_processor
from repro.core.ckernel import (
    _find_compiler,
    build_shared_lib,
    kernel_unavailable_reason,
)
from repro.policies import make_policy

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


def test_failed_build_is_tried_once_and_reported(
    c_kernel, config, ilp_trace, mem_trace, monkeypatch, tmp_path
):
    """Two machines after a failed build run the compiler once between
    them, both fall back with the build's reason, and
    ``kernel_unavailable_reason()`` reports it; the memo is restored
    afterwards, so later machines still see the kernel."""
    saved = ckernel.build_result
    compiles = []
    run = subprocess.run

    def counting_run(cmd, *args, **kwargs):
        compiles.append(cmd)
        return run(cmd, *args, **kwargs)

    with monkeypatch.context() as mp:
        mp.setattr(ckernel, "build_result", None)
        mp.setenv("REPRO_CKERNEL_CACHE", str(tmp_path))
        mp.setenv("REPRO_CKERNEL_CFLAGS", "-O2 -fno-such-flag-for-repro")
        mp.setattr(subprocess, "run", counting_run)
        procs = [
            make_processor("cloop", config, make_policy("icount"),
                           [ilp_trace, mem_trace])
            for _ in range(2)
        ]
        for proc in procs:
            assert not proc.kernel_active()
        assert len(compiles) == 1
        reason = kernel_unavailable_reason()
        assert reason is not None
        assert reason.startswith("kernel build failed")
        assert "-fno-such-flag-for-repro" in reason
        assert [p._cl_error for p in procs] == [reason, reason]
    assert ckernel.build_result is saved
    assert kernel_unavailable_reason() is None
    proc = make_processor("cloop", config, make_policy("icount"),
                          [ilp_trace, mem_trace])
    assert proc.kernel_active(), proc._cl_error


def test_loaded_kernel_answers_without_probing(c_kernel, monkeypatch):
    """Once this process holds the loaded kernel, the reason comes from
    it, with no toolchain probe; ``REPRO_NO_CKERNEL`` still wins."""
    import shutil

    from repro.core.cloop import _CloopContext

    _CloopContext._load()
    monkeypatch.setattr(shutil, "which", lambda *_a, **_k: None)
    assert _find_compiler() is None
    assert kernel_unavailable_reason() is None
    monkeypatch.setenv("REPRO_NO_CKERNEL", "1")
    assert "REPRO_NO_CKERNEL" in kernel_unavailable_reason()
