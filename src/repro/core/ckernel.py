"""Optional compiled wakeup/select kernel (the ``compiled`` backend).

Profiles of the slot-pool engine put the select phase — the age-ordered
merge of the ready heap with the deferred list plus port arbitration —
at the top of its per-cycle cost: it is the one loop whose body is pure
integer work over flat buffers with no Python-object traffic at all,
which makes it the natural (and only) candidate for compilation.

The toolchain story: this environment has no numba, Cython, or mypyc,
but it does have ``cffi`` and a C compiler, so the kernel is ~180 lines
of C compiled **on demand** into a shared library under a persistent
per-user cache directory (``REPRO_CKERNEL_CACHE``, default
``~/.cache/repro/ckernel``; never inside the repository), loaded in ABI
mode.  The build is keyed by a hash of the source and the compiler flags
(``REPRO_CKERNEL_CFLAGS``, default ``-O2``; e.g. a sanitizer build) and
file-locked, so it runs once per machine per kernel version and flag
set even with concurrent sweep workers.  The
build/load machinery here (:func:`build_shared_lib`,
:func:`load_shared_lib`) is shared with the whole-loop engine
(:mod:`repro.core.cloop`).

It is a *soft* dependency by design:

* :func:`kernel_unavailable_reason` probes cheaply (env override, cffi
  import, compiler lookup) without building anything;
* :func:`try_build_kernel` returns ``None`` on any failure and the
  ``compiled`` backend silently runs the pure-Python kernel instead —
  bit-identical either way (the CI fallback leg sets
  ``REPRO_NO_CKERNEL=1`` to prove it);
* results are bit-identical because the C scan is an exact transcription
  of the pure-Python scan: same lazy-deletion validation, same port
  claim order, same deferred rebuild.  Ages are globally unique, so the
  binary min-heap pops keys in the same total order as CPython's
  ``heapq`` regardless of internal layout.

The call-boundary design matters as much as the C: an early version
crossed the FFI twice per cycle (one ``select`` per cluster) with NumPy
staging buffers, and the marshalling cost more than the scan saved.
Now the engine makes ONE ``cycle_select`` call per cycle that absorbs
both clusters' pending pushes and runs both scans; every buffer is
cffi-owned ``long long[]`` storage (``ffi.unpack`` turns results into
Python lists), the engine's flag columns (``issued``/``squashed``/
``pcls``) are bytearrays viewed through ``ffi.from_buffer``, and the
``age`` column is mirrored into a cffi int64 buffer
(``PipelineSoA.cages``) the engine keeps in sync.  Because
``from_buffer`` pins a bytearray, :meth:`SelectKernel.rebind` re-derives
every view — and rebuilds ``cages`` from the authoritative ``age``
column — after a pool grow (which reallocates the flag bytearrays).
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

_C_SOURCE = r"""
typedef long long i64;
typedef unsigned char u8;

/* binary min-heap of i64 keys (ages are globally unique -> total order,
 * so pop order matches any correct min-heap, including heapq's) */

static void sift_down(i64 *h, i64 n, i64 i) {
    i64 v = h[i];
    for (;;) {
        i64 c = 2 * i + 1;
        if (c >= n) break;
        if (c + 1 < n && h[c + 1] < h[c]) c++;
        if (h[c] >= v) break;
        h[i] = h[c];
        i = c;
    }
    h[i] = v;
}

static void sift_up(i64 *h, i64 i) {
    i64 v = h[i];
    while (i > 0) {
        i64 p = (i - 1) / 2;
        if (h[p] <= v) break;
        h[i] = h[p];
        i = p;
    }
    h[i] = v;
}

void heap_push_many(i64 *heap, i64 *state, const i64 *keys, i64 nkeys) {
    i64 n = state[0];
    for (i64 j = 0; j < nkeys; j++) {
        heap[n] = keys[j];
        sift_up(heap, n);
        n++;
    }
    state[0] = n;
}

/* One cluster's select: age-ordered merge of heap and deferred list with
 * lazy stale-key deletion, then issue-port arbitration.  Issued keys go
 * to out_issued (selection order); passed keys plus the unscanned
 * deferred tail are rebuilt into deferred[] via scratch, so the passed
 * keys are readable as deferred[0..n_passed).
 * state = {heap_n, def_n};  out = {n_issued, n_passed, port_bits}. */
void select_scan(
    i64 *heap, i64 *deferred, i64 *scratch, i64 *out_issued,
    i64 *state, i64 max_scan,
    const i64 *ages, const u8 *issued_f, const u8 *squashed_f,
    const u8 *pcls, i64 slot_bits, i64 slot_mask, i64 *out)
{
    i64 heap_n = state[0];
    i64 dn = state[1];
    i64 di = 0, scanned = 0, n_iss = 0, n_pass = 0;
    int b0 = 0, b1 = 0, b2 = 0;
    while (scanned < max_scan) {
        i64 key, sl;
        if (di < dn) {
            i64 dkey = deferred[di];
            i64 dsl = dkey & slot_mask;
            if (squashed_f[dsl] || issued_f[dsl]
                    || ages[dsl] != (dkey >> slot_bits)) {
                di++;
                continue;
            }
            if (heap_n > 0 && heap[0] < dkey) {
                key = heap[0];
                heap[0] = heap[--heap_n];
                if (heap_n > 0) sift_down(heap, heap_n, 0);
                sl = key & slot_mask;
                if (squashed_f[sl] || issued_f[sl]
                        || ages[sl] != (key >> slot_bits))
                    continue;
            } else {
                di++;
                key = dkey;
                sl = dsl;
            }
        } else if (heap_n > 0) {
            key = heap[0];
            heap[0] = heap[--heap_n];
            if (heap_n > 0) sift_down(heap, heap_n, 0);
            sl = key & slot_mask;
            if (squashed_f[sl] || issued_f[sl]
                    || ages[sl] != (key >> slot_bits))
                continue;
        } else {
            break;
        }
        scanned++;
        int pc = pcls[sl];
        int claimed;
        if (pc == 2) {
            if (b2) claimed = 0; else { b2 = 1; claimed = 1; }
        } else if (!b0) { b0 = 1; claimed = 1; }
        else if (!b1) { b1 = 1; claimed = 1; }
        else if (pc == 0 && !b2) { b2 = 1; claimed = 1; }
        else claimed = 0;
        if (claimed) out_issued[n_iss++] = key;
        else scratch[n_pass++] = key;
    }
    i64 tail = dn - di;
    for (i64 i = 0; i < tail; i++) scratch[n_pass + i] = deferred[di + i];
    i64 new_dn = n_pass + tail;
    for (i64 i = 0; i < new_dn; i++) deferred[i] = scratch[i];
    state[0] = heap_n;
    state[1] = new_dn;
    out[0] = n_iss;
    out[1] = n_pass;
    out[2] = b0 | (b1 << 1) | (b2 << 2);
}

/* All per-processor pointers live in one context struct so the
 * per-cycle call marshals five scalars instead of two dozen args
 * (cffi ABI-mode call overhead scales with argument count). */
typedef struct {
    i64 *heap0; i64 *def0; i64 *scr0; i64 *iss0; i64 *state0; i64 *push0;
    i64 *heap1; i64 *def1; i64 *scr1; i64 *iss1; i64 *state1; i64 *push1;
    const i64 *ages;
    const u8 *issued_f;
    const u8 *squashed_f;
    const u8 *pcls;
    i64 slot_bits;
    i64 slot_mask;
    i64 out[10];
} kctx;

/* Whole-cycle entry point: absorb both clusters' pending pushes, then
 * run both select scans.  One FFI crossing per simulated cycle.
 * ctx->out = {ni0, np0, bits0, ni1, np1, bits1, heap_n0, def_n0,
 *             heap_n1, def_n1}. */
void cycle_select(kctx *c, i64 ms0, i64 ms1, i64 npush0, i64 npush1)
{
    if (npush0) heap_push_many(c->heap0, c->state0, c->push0, npush0);
    if (npush1) heap_push_many(c->heap1, c->state1, c->push1, npush1);
    select_scan(c->heap0, c->def0, c->scr0, c->iss0, c->state0, ms0,
                c->ages, c->issued_f, c->squashed_f, c->pcls,
                c->slot_bits, c->slot_mask, c->out);
    select_scan(c->heap1, c->def1, c->scr1, c->iss1, c->state1, ms1,
                c->ages, c->issued_f, c->squashed_f, c->pcls,
                c->slot_bits, c->slot_mask, c->out + 3);
    c->out[6] = c->state0[0];
    c->out[7] = c->state0[1];
    c->out[8] = c->state1[0];
    c->out[9] = c->state1[1];
}
"""

_CDEF = """
void heap_push_many(long long *heap, long long *state,
                    const long long *keys, long long nkeys);
void select_scan(
    long long *heap, long long *deferred, long long *scratch,
    long long *out_issued, long long *state, long long max_scan,
    const long long *ages, const unsigned char *issued_f,
    const unsigned char *squashed_f, const unsigned char *pcls,
    long long slot_bits, long long slot_mask, long long *out);
typedef struct {
    long long *heap0; long long *def0; long long *scr0; long long *iss0;
    long long *state0; long long *push0;
    long long *heap1; long long *def1; long long *scr1; long long *iss1;
    long long *state1; long long *push1;
    const long long *ages;
    const unsigned char *issued_f;
    const unsigned char *squashed_f;
    const unsigned char *pcls;
    long long slot_bits;
    long long slot_mask;
    long long out[10];
} kctx;
void cycle_select(kctx *c, long long ms0, long long ms1,
                  long long npush0, long long npush1);
"""

# build state: None = not yet probed/attempted; (lib, ffi) on success;
# a string reason on failure (also returned by the probe)
_build_result = None


def _find_compiler() -> str | None:
    from shutil import which

    for cc in ("cc", "gcc", "clang"):
        path = which(cc)
        if path:
            return path
    return None


def kernel_unavailable_reason() -> str | None:
    """Why the compiled kernel would NOT be used right now (``None`` =
    available).  Cheap: probes the toolchain, never builds."""
    if os.environ.get(_ENV_DISABLE):
        return f"{_ENV_DISABLE} is set"
    if isinstance(_build_result, str):
        return _build_result
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
    (no cffi, no compiler, compile error) — callers cache the reason and
    fall back to the pure engine.
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


def _build_lib():
    """Compile (or reuse) the select kernel; returns ``(lib, ffi)``."""
    global _build_result
    if _build_result is not None:
        if isinstance(_build_result, str):
            raise RuntimeError(_build_result)
        return _build_result
    try:
        _build_result = load_shared_lib(_C_SOURCE, _CDEF, "repro_ckernel")
        return _build_result
    except RuntimeError as exc:
        _build_result = str(exc)
        raise


_EMPTY: tuple = ()


class SelectKernel:
    """Per-processor wrapper owning the C-side buffers of both clusters.

    The engine routes every ready-key push into :attr:`pending` and makes
    one :meth:`cycle_select` call per cycle; issued and passed keys come
    back as plain Python lists (``ffi.unpack``), so the execute loop and
    imbalance probe are shared with the pure path byte for byte.
    """

    __slots__ = (
        "_lib",
        "_ffi",
        "pending",
        "_ctx",
        "_heap0",
        "_heap1",
        "_def0",
        "_def1",
        "_scr0",
        "_scr1",
        "_iss0",
        "_iss1",
        "_push0",
        "_push1",
        "_state0",
        "_state1",
        "_out",
        "_hcap0",
        "_hcap1",
        "_dcap0",
        "_dcap1",
        "_icap0",
        "_icap1",
        "_pcap0",
        "_pcap1",
        "_hn0",
        "_hn1",
        "_dn0",
        "_dn1",
        "_ages_p",
        "_issued_p",
        "_squashed_p",
        "_pcls_p",
    )

    def __init__(self, pipe, iq_capacities, slot_bits, slot_mask):
        lib, ffi = _build_lib()
        self._lib = lib
        self._ffi = ffi
        self.pending = ([], [])
        # generous initial capacity; stale keys linger between scans, so
        # cycle_select grows these on demand
        cap = max(256, 4 * max(iq_capacities))
        new = ffi.new
        ctx = new("kctx *")
        self._ctx = ctx
        ctx.slot_bits = slot_bits
        ctx.slot_mask = slot_mask
        for name, field, n in (
            ("_heap0", "heap0", cap), ("_heap1", "heap1", cap),
            ("_def0", "def0", cap), ("_def1", "def1", cap),
            ("_scr0", "scr0", cap), ("_scr1", "scr1", cap),
            ("_iss0", "iss0", cap), ("_iss1", "iss1", cap),
            ("_push0", "push0", cap), ("_push1", "push1", cap),
            ("_state0", "state0", 2), ("_state1", "state1", 2),
        ):
            buf = new("long long[]", n)
            setattr(self, name, buf)
            setattr(ctx, field, buf)
        self._out = ctx.out
        self._hcap0 = self._hcap1 = cap
        self._dcap0 = self._dcap1 = cap
        self._icap0 = self._icap1 = cap
        self._pcap0 = self._pcap1 = cap
        self._hn0 = self._hn1 = 0
        self._dn0 = self._dn1 = 0
        self.rebind(pipe)

    def rebind(self, pipe):
        """(Re-)derive the views into the pool's columns — called at
        attach and after every :meth:`PipelineSoA.grow` (which
        reallocates the flag bytearrays).  Also (re)builds the ``cages``
        int64 mirror from the authoritative ``age`` column; the engine
        keeps it in sync afterwards."""
        ffi = self._ffi
        ctx = self._ctx
        cages = ffi.new("long long[]", pipe.age)
        pipe.cages = cages
        self._ages_p = cages
        self._issued_p = ffi.from_buffer("unsigned char *", pipe.issued)
        self._squashed_p = ffi.from_buffer("unsigned char *", pipe.squashed)
        self._pcls_p = ffi.from_buffer("unsigned char *", pipe.pcls)
        ctx.ages = cages
        ctx.issued_f = self._issued_p
        ctx.squashed_f = self._squashed_p
        ctx.pcls = self._pcls_p

    def _grow(self, name, field, needed, used):
        """Reallocate buffer ``name`` to >= ``needed``, preserving the
        first ``used`` entries, and repoint the context field."""
        ffi = self._ffi
        old = getattr(self, name)
        cap = len(old)
        while cap < needed:
            cap *= 2
        buf = ffi.new("long long[]", cap)
        if used:
            ffi.memmove(buf, old, used * 8)
        setattr(self, name, buf)
        setattr(self._ctx, field, buf)
        return cap

    # -- the kernel interface the engine calls -----------------------------

    def cycle_select(self, ms0, ms1):
        """One C call for the whole cycle: flush both clusters' pending
        pushes, run both select scans.  Returns ``None`` when both
        clusters are empty, else a 6-tuple
        ``(issued0, passed0, bits0, issued1, passed1, bits1)`` where the
        key lists are Python lists (``None``/``()`` when empty)."""
        p0, p1 = self.pending
        n0 = len(p0)
        n1 = len(p1)
        hn0 = self._hn0
        hn1 = self._hn1
        dn0 = self._dn0
        dn1 = self._dn1
        if not (n0 or n1 or hn0 or hn1 or dn0 or dn1):
            return None
        if n0:
            if hn0 + n0 > self._hcap0:
                self._hcap0 = self._grow("_heap0", "heap0", hn0 + n0, hn0)
            if n0 > self._pcap0:
                self._pcap0 = self._grow("_push0", "push0", n0, 0)
            self._push0[0:n0] = p0
            p0.clear()
        if n1:
            if hn1 + n1 > self._hcap1:
                self._hcap1 = self._grow("_heap1", "heap1", hn1 + n1, hn1)
            if n1 > self._pcap1:
                self._pcap1 = self._grow("_push1", "push1", n1, 0)
            self._push1[0:n1] = p1
            p1.clear()
        need = dn0 + ms0 + 1
        if need > self._dcap0:
            self._dcap0 = self._grow("_def0", "def0", need, dn0)
            self._grow("_scr0", "scr0", need, 0)
        need = dn1 + ms1 + 1
        if need > self._dcap1:
            self._dcap1 = self._grow("_def1", "def1", need, dn1)
            self._grow("_scr1", "scr1", need, 0)
        if ms0 > self._icap0:
            self._icap0 = self._grow("_iss0", "iss0", ms0, 0)
        if ms1 > self._icap1:
            self._icap1 = self._grow("_iss1", "iss1", ms1, 0)
        self._lib.cycle_select(self._ctx, ms0, ms1, n0, n1)
        unpack = self._ffi.unpack
        o = unpack(self._out, 10)
        ni0 = o[0]
        np0 = o[1]
        ni1 = o[3]
        np1 = o[4]
        self._hn0 = o[6]
        self._dn0 = o[7]
        self._hn1 = o[8]
        self._dn1 = o[9]
        return (
            unpack(self._iss0, ni0) if ni0 else None,
            unpack(self._def0, np0) if np0 else _EMPTY,
            o[2],
            unpack(self._iss1, ni1) if ni1 else None,
            unpack(self._def1, np1) if np1 else _EMPTY,
            o[5],
        )


def try_build_kernel(pipe, iq_capacities, slot_bits, slot_mask):
    """A :class:`SelectKernel` bound to ``pipe``, or ``None`` when the
    toolchain is unavailable or the build fails (pure-Python fallback)."""
    if kernel_unavailable_reason() is not None:
        return None
    try:
        return SelectKernel(pipe, iq_capacities, slot_bits, slot_mask)
    except Exception:  # noqa: BLE001 - soft dependency by contract
        return None
