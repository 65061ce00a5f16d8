"""On-demand build, cache and load of the C kernel (``cloop`` backend).

The toolchain story: this environment has no numba, Cython, or mypyc,
but it does have ``cffi`` and a C compiler, so the whole-loop engine's
kernel (:mod:`repro.core.cloop`) is C source compiled **on demand** into
a shared library under a persistent per-user cache directory
(``REPRO_CKERNEL_CACHE``, default ``~/.cache/repro/ckernel``; never
inside the repository), loaded in ABI mode.  The build is keyed by a
hash of the source and the compiler flags (``REPRO_CKERNEL_CFLAGS``,
default ``-O2``; e.g. a sanitizer build) and file-locked, so it runs
once per machine per kernel version and flag set even with concurrent
sweep workers.

It is a *soft* dependency by design:

* :func:`kernel_unavailable_reason` says why the kernel would not be
  used — ``REPRO_NO_CKERNEL`` set, no cffi, no compiler, or a build
  that already failed in this process (:data:`build_result`) — without
  building anything;
* :func:`load_shared_lib` raises ``RuntimeError`` with a readable
  reason on any failure, and the ``cloop`` backend then runs the
  ``vectorized`` engine instead — bit-identical either way (the CI
  fallback legs set ``REPRO_NO_CKERNEL=1`` to prove it).
"""

from __future__ import annotations

import hashlib
import os
import shlex
import subprocess
import sys
import tempfile

_ENV_DISABLE = "REPRO_NO_CKERNEL"
_ENV_CACHE = "REPRO_CKERNEL_CACHE"
_ENV_CFLAGS = "REPRO_CKERNEL_CFLAGS"

#: this process's kernel build: None = not tried yet, ``(lib, ffi)``
#: once loaded, the failure reason (a string) once a build or load
#: failed.  Written by the whole-loop engine's loader
#: (:mod:`repro.core.cloop`), so one machine's failed build is neither
#: retried by the next nor hidden from :func:`kernel_unavailable_reason`.
build_result = None


def _find_compiler() -> str | None:
    from shutil import which

    for cc in ("cc", "gcc", "clang"):
        path = which(cc)
        if path:
            return path
    return None


def kernel_unavailable_reason() -> str | None:
    """Why the compiled kernel would NOT be used right now (``None`` =
    available).  Cheap: answers from this process's build outcome once
    there is one, else probes the toolchain; never builds."""
    if os.environ.get(_ENV_DISABLE):
        return f"{_ENV_DISABLE} is set"
    if isinstance(build_result, str):
        return build_result
    if build_result is not None:
        return None  # loaded: no toolchain probe needed
    try:
        import cffi  # noqa: F401
    except ImportError:
        return "cffi is not installed"
    if _find_compiler() is None:
        return "no C compiler (cc/gcc/clang) on PATH"
    return None


def _cache_dir() -> str:
    """Directory compiled kernels persist in across runs and processes.

    ``REPRO_CKERNEL_CACHE`` overrides; the default is a per-user cache
    under ``~/.cache/repro`` (XDG-style, honouring ``XDG_CACHE_HOME``)
    so fresh shells and sweep workers reuse one build instead of
    recompiling into a session temp dir.  Falls back to the system temp
    directory when the cache dir cannot be created (read-only $HOME).
    """
    override = os.environ.get(_ENV_CACHE)
    if override:
        path = override
    else:
        xdg = os.environ.get("XDG_CACHE_HOME")
        base = xdg if xdg else os.path.join(os.path.expanduser("~"), ".cache")
        path = os.path.join(base, "repro", "ckernel")
    try:
        os.makedirs(path, exist_ok=True)
        return path
    except OSError:
        return tempfile.gettempdir()


def _cflags() -> list[str]:
    """Compiler flags for kernel builds: ``REPRO_CKERNEL_CFLAGS`` split
    like a shell would, or ``-O2`` when it is unset or blank."""
    return shlex.split(os.environ.get(_ENV_CFLAGS, "")) or ["-O2"]


def build_shared_lib(source: str, stem: str) -> str:
    """Compile ``source`` (or reuse a cached build); return the ``.so`` path.

    The library lands in :func:`_cache_dir` keyed by a hash of the C
    source and the compiler flags (:func:`_cflags`), so rebuilds only
    happen when the kernel or the flags change — and never write inside
    the repository.  Concurrent builders (parallel
    sweep workers on a cold cache) serialize on a file lock; the final
    publish is an atomic rename either way, so a lock-less filesystem
    degrades to at-worst-duplicated work, never a torn library.
    """
    cc = _find_compiler()
    if cc is None:
        raise RuntimeError("no C compiler (cc/gcc/clang) on PATH")
    flags = _cflags()
    key = "\0".join([source, *flags])
    tag = hashlib.sha256(key.encode()).hexdigest()[:16]
    cache = _cache_dir()
    ext = ".dylib" if sys.platform == "darwin" else ".so"
    lib_path = os.path.join(cache, f"{stem}_{tag}{ext}")
    if os.path.exists(lib_path):
        return lib_path
    lock_path = lib_path + ".lock"
    lock_fd = None
    try:
        try:
            import fcntl

            lock_fd = os.open(lock_path, os.O_CREAT | os.O_RDWR, 0o644)
            fcntl.flock(lock_fd, fcntl.LOCK_EX)
        except (ImportError, OSError):
            lock_fd = None  # no flock here; atomic rename still protects us
        if os.path.exists(lib_path):  # lost the race; winner already built
            return lib_path
        src_path = os.path.join(cache, f"{stem}_{tag}.c")
        with open(src_path, "w") as f:
            f.write(source)
        build_path = lib_path + f".build-{os.getpid()}"
        subprocess.run(
            [cc, *flags, "-shared", "-fPIC", "-o", build_path, src_path],
            check=True,
            capture_output=True,
            text=True,
        )
        os.replace(build_path, lib_path)  # atomic vs concurrent builders
        return lib_path
    finally:
        if lock_fd is not None:
            try:
                import fcntl

                fcntl.flock(lock_fd, fcntl.LOCK_UN)
            except OSError:
                pass
            os.close(lock_fd)


def load_shared_lib(source: str, cdef: str, stem: str):
    """Build (or reuse) and dlopen a kernel; returns ``(lib, ffi)``.

    Raises ``RuntimeError`` with a human-readable reason on any failure
    (no cffi, no compiler, compile error) — callers record the reason in
    :data:`build_result` and fall back to the Python engine.
    """
    try:
        import cffi

        lib_path = build_shared_lib(source, stem)
        ffi = cffi.FFI()
        ffi.cdef(cdef)
        lib = ffi.dlopen(lib_path)
        return lib, ffi
    except Exception as exc:  # noqa: BLE001 - soft dependency by contract
        if isinstance(exc, subprocess.CalledProcessError):
            detail = (exc.stderr or "").strip().splitlines()
            reason = "kernel build failed: " + (detail[-1] if detail else str(exc))
        else:
            reason = f"kernel build failed: {exc}"
        raise RuntimeError(reason) from exc
