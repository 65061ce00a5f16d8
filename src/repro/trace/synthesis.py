"""Synthetic trace generation.

The paper uses 120 proprietary 2-thread traces.  We replace them with a
*program-structured* synthetic generator: each trace is produced by walking
a randomly generated static program (basic blocks with fixed uop templates,
biased terminating branches, per-load access patterns).  This preserves the
properties the simulated mechanisms react to:

* repeating PCs -> realistic trace-cache hit rates and gshare accuracy
  (accuracy is controlled by per-branch bias);
* dependence distance distribution -> ILP and steering stickiness;
* per-template memory regions with stride/random modes -> working-set size
  and L1/L2/memory hit ratios;
* register-class mix -> integer vs FP/SSE physical register pressure.

All randomness flows from a single seed, so a ``(profile, seed, n_uops)``
triple always yields the identical trace.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from repro.isa import NO_REG, NUM_ARCH_INT, UopClass
from repro.trace.trace import TRACE_DTYPE, Trace

_INT_REG0 = 0
_FP_REG0 = NUM_ARCH_INT


@dataclass(frozen=True)
class TraceProfile:
    """Statistical knobs for one synthetic workload class.

    The defaults describe a moderately parallel integer workload; category
    profiles (:mod:`repro.trace.categories`) override them.
    """

    name: str = "generic"
    # instruction mix (fractions of the dynamic stream; remainder = int ALU)
    frac_load: float = 0.22
    frac_store: float = 0.10
    frac_branch: float = 0.12
    frac_fp: float = 0.0       # of compute uops, fraction that are FP/SIMD
    frac_simd: float = 0.3     # of FP uops, fraction that are SIMD
    frac_mul: float = 0.1      # of int compute uops, fraction INT_MUL
    # dependence structure
    dep_mean_distance: float = 6.0  # mean producer distance; small => serial
    dep_locality: float = 0.7       # prob a source reads a recent producer
    # memory behaviour
    working_set_lines: int = 256    # distinct cache lines touched
    stride_frac: float = 0.6        # fraction of streaming (stride-1) templates
    load_dep_chain: float = 0.1     # prob a load address depends on a recent load
    stride_reuse: int = 6           # consecutive accesses per line when streaming
    # branch behaviour
    branch_bias: float = 0.92       # mean per-static-branch takenness bias
    n_blocks: int = 64              # static basic blocks
    frac_indirect: float = 0.0      # fraction of branches that are indirect
    indirect_targets: int = 4       # dynamic targets per indirect branch
    # MROM-decoded complex macro-ops (string moves etc.)
    frac_complex: float = 0.0       # fraction of int uops that are complex
    # register usage (architectural destinations cycled)
    int_regs_used: int = 12
    fp_regs_used: int = 12

    def scaled_memory(self, factor: float) -> "TraceProfile":
        """Copy with the working set scaled by ``factor`` (MEM variants)."""
        return replace(
            self, working_set_lines=max(16, int(self.working_set_lines * factor))
        )

    def validate(self) -> None:
        """Raise ``ValueError`` for out-of-range or inconsistent knobs."""
        fracs = {
            "frac_load": self.frac_load,
            "frac_store": self.frac_store,
            "frac_branch": self.frac_branch,
            "frac_fp": self.frac_fp,
            "frac_simd": self.frac_simd,
            "frac_mul": self.frac_mul,
            "dep_locality": self.dep_locality,
            "stride_frac": self.stride_frac,
            "load_dep_chain": self.load_dep_chain,
            "branch_bias": self.branch_bias,
        }
        for key, val in fracs.items():
            if not 0.0 <= val <= 1.0:
                raise ValueError(f"{key}={val} outside [0, 1]")
        if self.frac_load + self.frac_store + self.frac_branch > 0.9:
            raise ValueError("mem+branch mix leaves no room for compute uops")
        if not 1 <= self.int_regs_used <= NUM_ARCH_INT:
            raise ValueError("int_regs_used out of range")
        if not 1 <= self.fp_regs_used <= NUM_ARCH_INT:
            raise ValueError("fp_regs_used out of range")
        if self.n_blocks < 2:
            raise ValueError("need at least 2 basic blocks")
        if self.working_set_lines < 1:
            raise ValueError("working set must be positive")
        if self.dep_mean_distance < 1.0:
            raise ValueError("dep_mean_distance must be >= 1")
        if self.stride_reuse < 1:
            raise ValueError("stride_reuse must be >= 1")
        if not 0.0 <= self.frac_indirect <= 1.0:
            raise ValueError("frac_indirect outside [0, 1]")
        if not 0.0 <= self.frac_complex <= 1.0:
            raise ValueError("frac_complex outside [0, 1]")
        if self.indirect_targets < 2:
            raise ValueError("indirect branches need >= 2 targets")


# --- static program model -------------------------------------------------

# Template source kinds.
_SRC_NONE = 0
_SRC_RECENT = 1   # read a recently produced value (dependence)
_SRC_FAR = 2      # read an old (long-ready) value


@dataclass
class _UopTemplate:
    opclass: UopClass
    pc: int
    dest_kind: int        # -1 none, 0 int, 1 fp
    src_kinds: tuple[tuple[int, int], ...]  # (kind, regclass 0=int 1=fp)
    # memory templates
    region_base: int = 0
    region_lines: int = 0
    stride: bool = False
    pointer_chase: bool = False
    # optional-feature markers
    complex_op: bool = False


@dataclass
class _Block:
    body: list[_UopTemplate]
    branch: _UopTemplate | None
    bias: float
    taken_succ: int
    fall_succ: int
    # indirect terminator: multiple taken targets, walked semi-regularly
    indirect_succs: tuple[int, ...] = ()


class SyntheticProgram:
    """A randomly generated static program that can emit dynamic traces.

    Instances are cheap to build (a few hundred templates) and reusable:
    :meth:`emit` walks the control-flow graph deterministically from its own
    seeded RNG.
    """

    def __init__(self, profile: TraceProfile, seed: int) -> None:
        profile.validate()
        self.profile = profile
        self.seed = seed
        rng = np.random.default_rng(seed)
        # optional features draw from their own stream so enabling them
        # never perturbs the base program structure
        self._feature_rng = np.random.default_rng(seed ^ 0x5EED_FEA7)
        self.blocks = self._build_blocks(rng)

    # -- construction -----------------------------------------------------

    def _sample_opclass(self, rng: np.random.Generator) -> UopClass:
        p = self.profile
        r = rng.random()
        if r < p.frac_load:
            return UopClass.LOAD
        r -= p.frac_load
        if r < p.frac_store:
            return UopClass.STORE
        # compute op
        if rng.random() < p.frac_fp:
            return UopClass.SIMD if rng.random() < p.frac_simd else UopClass.FP
        return UopClass.INT_MUL if rng.random() < p.frac_mul else UopClass.INT_ALU

    def _src_kind(self, rng: np.random.Generator) -> int:
        return _SRC_RECENT if rng.random() < self.profile.dep_locality else _SRC_FAR

    def _build_blocks(self, rng: np.random.Generator) -> list[_Block]:
        p = self.profile
        blocks: list[_Block] = []
        pc = 0
        # mean body length so that branches are frac_branch of the stream
        mean_body = max(1.0, (1.0 - p.frac_branch) / max(p.frac_branch, 1e-6))
        for b in range(p.n_blocks):
            body_len = max(1, int(rng.geometric(1.0 / mean_body)))
            body: list[_UopTemplate] = []
            for _ in range(body_len):
                opc = self._sample_opclass(rng)
                if opc == UopClass.LOAD:
                    dest_kind = 1 if rng.random() < p.frac_fp else 0
                    srcs = ((self._src_kind(rng), 0),)  # address from int reg
                elif opc == UopClass.STORE:
                    dest_kind = -1
                    data_cls = 1 if rng.random() < p.frac_fp else 0
                    srcs = ((self._src_kind(rng), 0), (self._src_kind(rng), data_cls))
                elif opc in (UopClass.FP, UopClass.SIMD):
                    dest_kind = 1
                    srcs = ((self._src_kind(rng), 1), (self._src_kind(rng), 1))
                else:  # INT_ALU / INT_MUL
                    dest_kind = 0
                    srcs = ((self._src_kind(rng), 0), (self._src_kind(rng), 0))
                tmpl = _UopTemplate(opc, pc, dest_kind, srcs)
                if opc in (UopClass.LOAD, UopClass.STORE):
                    # Regions overlap (random bases, 4x-wide windows) so the
                    # hot templates cover most of the working set quickly:
                    # compulsory misses front-load instead of trickling in
                    # for the whole run.
                    lines = max(
                        1, 4 * p.working_set_lines // max(1, p.n_blocks)
                    )
                    lines = min(lines, p.working_set_lines)
                    tmpl.region_base = int(rng.integers(0, max(1, p.working_set_lines)))
                    tmpl.region_lines = lines
                    tmpl.stride = rng.random() < p.stride_frac
                    tmpl.pointer_chase = (
                        opc == UopClass.LOAD and rng.random() < p.load_dep_chain
                    )
                if (
                    p.frac_complex > 0.0
                    and opc in (UopClass.INT_ALU, UopClass.INT_MUL)
                    and self._feature_rng.random() < p.frac_complex
                ):
                    tmpl.complex_op = True
                body.append(tmpl)
                pc += 1
            # terminating conditional branch
            br = _UopTemplate(
                UopClass.BRANCH, pc, -1, ((self._src_kind(rng), 0),)
            )
            pc += 1
            bias = float(np.clip(rng.normal(p.branch_bias, 0.06), 0.5, 0.995))
            # back-edges keep the walk inside a loop nest; forward edges
            # occasionally jump elsewhere in the program
            if rng.random() < 0.7:
                taken_succ = int(rng.integers(0, max(1, b + 1)))  # back/self edge
            else:
                taken_succ = int(rng.integers(0, p.n_blocks))
            fall_succ = (b + 1) % p.n_blocks
            indirect_succs: tuple[int, ...] = ()
            if p.frac_indirect > 0.0 and self._feature_rng.random() < p.frac_indirect:
                # an indirect jump: several semi-regularly visited targets
                indirect_succs = tuple(
                    int(self._feature_rng.integers(0, p.n_blocks))
                    for _ in range(p.indirect_targets)
                )
            blocks.append(
                _Block(body, br, bias, taken_succ, fall_succ, indirect_succs)
            )
        return blocks

    # -- dynamic walk -----------------------------------------------------

    def emit(self, n_uops: int, seed: int | None = None) -> np.ndarray:
        """Emit ``n_uops`` dynamic records by walking the program."""
        p = self.profile
        rng = np.random.default_rng(self.seed + 0x9E3779B9 if seed is None else seed)
        out = np.zeros(n_uops, dtype=TRACE_DTYPE)
        opclass_col = out["opclass"]
        dest_col = out["dest"]
        src1_col = out["src1"]
        src2_col = out["src2"]
        pc_col = out["pc"]
        taken_col = out["taken"]
        line_col = out["mem_line"]
        ind_col = out["indirect"]
        tgt_col = out["target"]
        cplx_col = out["complex_op"]
        indirect_visits: dict[int, int] = {}

        # recent destination registers per class (most recent last)
        recent: tuple[list[int], list[int]] = ([_INT_REG0], [_FP_REG0])
        last_load_dest = -1  # for pointer-chase address dependences
        reg_base = (_INT_REG0, _FP_REG0)
        regs_used = (p.int_regs_used, p.fp_regs_used)
        # Registers above the destination window are never written: they
        # model loop invariants / base pointers.  "Far" sources mostly read
        # them, so low dep_locality yields genuinely independent work
        # instead of accidental chains through recycled destinations.
        inv_count = (NUM_ARCH_INT - p.int_regs_used, NUM_ARCH_INT - p.fp_regs_used)
        dest_cursor = [0, 0]
        recent_cap = 16
        # per-template stride pointers
        stride_ptr: dict[int, int] = {}
        # geometric sampling for dependence distance
        geo_p = 1.0 / max(1.0, p.dep_mean_distance)
        # pre-draw random pools (much faster than per-uop rng calls)
        pool_size = 8 * n_uops + 32
        randpool = rng.random(pool_size)
        rp = 0

        block_idx = 0
        i = 0
        blocks = self.blocks
        # Per-block uop sequence (body + terminator), built once: the walk
        # revisits hot blocks thousands of times and list concatenation in
        # the loop header dominated the emit profile.
        block_seqs = [
            b.body + ([b.branch] if b.branch else []) for b in blocks
        ]
        while i < n_uops:
            block = blocks[block_idx]
            for tmpl in block_seqs[block_idx]:
                if i >= n_uops:
                    break
                if rp + 8 >= pool_size:
                    randpool = rng.random(pool_size)
                    rp = 0
                opc = tmpl.opclass
                opclass_col[i] = int(opc)
                pc_col[i] = tmpl.pc
                # destination
                if tmpl.dest_kind >= 0:
                    k = tmpl.dest_kind
                    dreg = reg_base[k] + dest_cursor[k]
                    dest_cursor[k] = (dest_cursor[k] + 1) % regs_used[k]
                    dest_col[i] = dreg
                    rec = recent[k]
                    rec.append(dreg)
                    if len(rec) > recent_cap:
                        del rec[0]
                else:
                    dest_col[i] = NO_REG
                # sources
                srcs = []
                if tmpl.pointer_chase and last_load_dest >= 0:
                    # address register comes from the latest load: the
                    # load-load chain that makes MEM traces latency-bound
                    srcs.append(last_load_dest)
                skip_first = bool(srcs)
                for kind, kcls in tmpl.src_kinds:
                    if skip_first:
                        skip_first = False
                        continue
                    rec = recent[kcls]
                    if kind == _SRC_RECENT and rec:
                        # geometric distance into the recent list
                        r = randpool[rp]
                        rp += 1
                        dist = int(np.log1p(-r * (1 - (1 - geo_p) ** len(rec)))
                                   / np.log(1 - geo_p)) if geo_p < 1.0 else 0
                        dist = min(dist, len(rec) - 1)
                        srcs.append(rec[-1 - dist])
                    else:
                        r = randpool[rp]
                        rp += 1
                        n_inv = inv_count[kcls]
                        if n_inv > 0 and r < 0.7:
                            # read an invariant (always-ready) register
                            srcs.append(
                                reg_base[kcls]
                                + regs_used[kcls]
                                + int(r / 0.7 * n_inv)
                            )
                        else:
                            r2 = randpool[rp]
                            rp += 1
                            srcs.append(reg_base[kcls] + int(r2 * regs_used[kcls]))
                src1_col[i] = srcs[0] if srcs else NO_REG
                src2_col[i] = srcs[1] if len(srcs) > 1 else NO_REG
                if opc == UopClass.LOAD and tmpl.dest_kind == 0:
                    last_load_dest = dest_col[i]
                # memory address
                if opc == UopClass.LOAD or opc == UopClass.STORE:
                    key = tmpl.pc
                    if tmpl.stride:
                        # several consecutive element accesses share a cache
                        # line (64B lines, 8-16B elements)
                        ptr = stride_ptr.get(key, 0)
                        line = tmpl.region_base + (
                            (ptr // p.stride_reuse) % max(1, tmpl.region_lines)
                        )
                        stride_ptr[key] = ptr + 1
                    else:
                        r = randpool[rp]
                        rp += 1
                        line = tmpl.region_base + int(r * max(1, tmpl.region_lines))
                    line_col[i] = line % max(1, p.working_set_lines)
                if tmpl.complex_op:
                    cplx_col[i] = 1
                # branch outcome
                if opc == UopClass.BRANCH:
                    if block.indirect_succs:
                        # indirect jump: always taken.  Targets follow the
                        # dominant-target pattern of real virtual calls: a
                        # hot target most of the time, minor targets on a
                        # mildly phased schedule.
                        ind_col[i] = 1
                        taken_col[i] = 1
                        visits = indirect_visits.get(block_idx, 0)
                        indirect_visits[block_idx] = visits + 1
                        r = randpool[rp]
                        rp += 1
                        succs = block.indirect_succs
                        if r < 0.75:
                            tidx = 0  # dominant target
                        else:
                            tidx = 1 + (visits % (len(succs) - 1))
                        tgt_col[i] = succs[min(tidx, len(succs) - 1)]
                    else:
                        r = randpool[rp]
                        rp += 1
                        taken = r < block.bias
                        taken_col[i] = taken
                i += 1
            else:
                if block.indirect_succs and ind_col[i - 1]:
                    block_idx = int(tgt_col[i - 1])
                else:
                    block_idx = (
                        block.taken_succ if taken_col[i - 1] else block.fall_succ
                    )
                continue
            break  # inner break (i >= n_uops) falls through here
        return out


def generate_trace(
    profile: TraceProfile,
    seed: int,
    n_uops: int,
    name: str | None = None,
    category: str = "synthetic",
    kind: str = "ilp",
) -> Trace:
    """Build a static program from ``(profile, seed)`` and emit a trace.

    Synthesis is deterministic in ``(profile, seed, n_uops)``, so the
    emitted records are served from the shared on-disk cache
    (:mod:`repro.trace.cache`) when present; ``REPRO_TRACE_CACHE=0``
    turns that cache off.
    """
    from repro.trace import cache

    key = cache.trace_key(profile, seed, n_uops)
    records = cache.load_records(key, n_uops)
    if records is None:
        program = SyntheticProgram(profile, seed)
        records = program.emit(n_uops)
        cache.store_records(key, records)
    trace = Trace(
        records,
        name=name or f"{profile.name}-{seed}",
        category=category,
        kind=kind,
        seed=seed,
    )
    return trace


class WrongPathSource:
    """Deterministic generator of wrong-path uop records for one thread.

    Wrong-path instructions in the paper's traces "hold enough information
    to faithfully simulate wrong path execution".  We approximate them by
    resampling records of the committed trace with a decorrelating stride,
    so wrong-path streams have the same mix and footprint as the right path
    (they allocate the same kinds of resources) without replaying it.
    """

    _STRIDE = 7919  # prime, decorrelates from sequential fetch

    def __init__(self, trace: Trace) -> None:
        if len(trace) == 0:
            raise ValueError("cannot build a wrong-path source from an empty trace")
        self._cols = trace.columns()
        self._n = len(trace.records)
        self._cursor = 1

    def peek_pc(self) -> int:
        """PC of the record the next :meth:`next_record` call will return."""
        return self._cols.pc[(self._cursor * self._STRIDE) % self._n] | (1 << 40)

    def next_record(self) -> tuple[int, int, int, int, int, bool, int]:
        """Return ``(opclass, dest, src1, src2, pc, taken, mem_line)``."""
        i = (self._cursor * self._STRIDE) % self._n
        self._cursor += 1
        cols = self._cols
        return (
            cols.opclass[i],
            cols.dest[i],
            cols.src1[i],
            cols.src2[i],
            cols.pc[i] | (1 << 40),  # distinct PC space for wrong path
            cols.taken[i],
            cols.mem_line[i],
        )


def iter_uop_mix(records: np.ndarray) -> Iterator[tuple[UopClass, float]]:
    """Yield ``(uop_class, fraction)`` for every class present in a trace."""
    n = len(records)
    if n == 0:
        return
    classes, counts = np.unique(records["opclass"], return_counts=True)
    for cls, cnt in zip(classes, counts):
        yield UopClass(int(cls)), float(cnt) / n
