"""Whole-loop compiled cycle engine (the ``cloop`` backend).

PR 9's finding was structural: a *per-phase* C kernel breaks even
because the per-cycle FFI call costs what the scan it replaces costs.
This backend moves the **entire cycle loop** across the C boundary so
the call cost amortizes over thousands of cycles: fetch, rename, issue,
writeback, commit, copy generation, the inter-cluster interconnect
queues and the event wheel all execute in one resident C kernel, which
steps every cycle like the Python engines.  Python is re-entered only at
*observable-event boundaries* — region exit (limit / stop condition),
the deadlock watchdog, and any configuration the C policy table cannot
express.

Identity is by construction, the same way every other backend earns it:
the C kernel is an operation-for-operation transcription of the
``vectorized`` loop (:mod:`repro.core.vectorized`), which transcribes
the reference interpreter.  One representation changes: an in-flight
uop is an integer slot in a recycled pool of parallel columns rather
than a ``Uop`` object.  The transcription preserves

* the exact phase order (commit, writeback, fills, copy delivery,
  issue, imbalance probe, rename, fetch, watchdog) and every
  intra-phase visitation order;
* the lazy-deletion discipline on packed ``(age << SLOT_BITS) | slot``
  keys — ages are globally unique, so any correct binary min-heap pops
  the same key sequence as CPython's ``heapq``;
* the memory-system transcriptions (list-LRU caches, bus arbitration,
  fill coalescing, gshare/indirect predictors) down to counter order;
* every stats/epoch/memo update, including the rename-stall memo.

The *C policy table* covers all ten of the paper's schemes, and none
of them crosses the FFI boundary mid-region.  Each is Icount (the
inlined ICOUNT rename scan) plus transcribed rules, taken from the
Python policies and the ``vectorized`` engine's hook call sites:

* CISP, CSSP, CSPSP and PC: their ``may_dispatch_group`` admission;
* Stall and Flush+: the issue-time ``on_l2_miss`` rule (the rename
  gate; flush-with-rewind with first-misser-continues, which is why the
  issue stage selects first and executes afterwards) and
  ``on_l2_fill``, with Stall's ``stalled_thread_cycles``;
* CSSPRF, CISPRF and CDPRF: CSSP plus per-(thread, class, cluster)
  register counts at every allocation and free, the static caps over
  the files' live capacity, and CDPRF's reserve-then-share admission,
  Starvation/RFOC tick and interval end.

The table matches exact types.  What still runs on the inherited
``vectorized`` engine, and why (``_cl_error`` names the reason):

* telemetry runs — the kernel has no sampler or event hooks;
* DCRA and hill-climbing — adaptive policies whose per-cycle state the
  table does not transcribe;
* any policy subclass — an ablation may override admission or a hook;
* steering that is neither the inlinable default nor forced (PC).

The choice is made once, at construction, and one instance never mixes
C-resident and Python-resident machine state.  A machine the kernel
owns is built without the Python engines' state (cache contents,
predictor tables, trace columns, wrong-path sources); its Python objects
carry the counters the kernel exports, and reading its cache contents or
predictor tables raises.

Region API: :meth:`CloopProcessor.run_cycles` runs a bounded region and
returns a typed exit reason (``"limit"`` or ``"done"``); exit counts are
tallied in :attr:`CloopProcessor.region_exits`.  ``run_simulation``
frees the C machine once it has the stats
(:meth:`CloopProcessor.release`).  The kernel is a soft
dependency with the established discipline: built on demand with cffi
and a content-hashed persistent cache (:mod:`repro.core.ckernel`), and
``REPRO_NO_CKERNEL`` / no cffi / no C compiler / a failed build falls
back to the ``vectorized`` engine, bit-identical, with the reason
surfaced by :func:`repro.core.ckernel.kernel_unavailable_reason`.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.core import ckernel
from repro.core.ckernel import kernel_unavailable_reason, load_shared_lib
from repro.core.processor import _WATCHDOG_CYCLES, DeadlockError
from repro.core.soa import static_arrays
from repro.core.vectorized import (
    _BRANCH,
    _COPY,
    _LOAD,
    _STORE,
    VectorizedProcessor,
)
from repro.frontend.steering import Steering
from repro.isa import NUM_ARCH_INT, NUM_ARCH_REGS
from repro.isa.uops import PORT_CLASS_TABLE
from repro.policies.cdprf import CDPRFPolicy
from repro.policies.flushplus import FlushPlusPolicy
from repro.policies.icount import IcountPolicy
from repro.policies.regfile_static import CISPRFPolicy, CSSPRFPolicy
from repro.policies.stall import StallPolicy
from repro.policies.static_partition import (
    CISPPolicy,
    CSPSPPolicy,
    CSSPPolicy,
    PrivateClustersPolicy,
)

#: bits of a packed ``(age << SLOT_BITS) | slot`` key reserved for the
#: slot index; the high bits carry the uop age, so keys sort by age
SLOT_BITS = 20

#: region exit reasons returned by :meth:`CloopProcessor.run_cycles`
REGION_LIMIT = "limit"
REGION_DONE = "done"

#: policies the C kernel implements natively (exact type match — a
#: subclass may override admission and must take the delegation path)
_C_POLICY_KINDS = {
    IcountPolicy: 0,
    CISPPolicy: 1,
    CSSPPolicy: 2,
    CSPSPPolicy: 3,
    PrivateClustersPolicy: 4,
    CSSPRFPolicy: 5,
    CISPRFPolicy: 6,
    CDPRFPolicy: 7,
    StallPolicy: 8,
    FlushPlusPolicy: 9,
}

#: kinds whose policy meters registers per (thread, class, cluster)
_REG_METERED = (5, 6, 7)
_CDPRF = 7

#: per-thread policy state values (``POLICY_STATE`` in the C source)
_POLICY_STATE = 14

_STOP_CODES = {"first_done": 0, "all_done": 1, "cycles": 2}

#: per thread, the context of the last released machine (see
#: :meth:`CloopProcessor.release`)
_held = threading.local()

#: rename-stall causes, in the kernel's integer encoding
_CAUSES = ("iq", "rf_int", "rf_fp", "rob", "mob")

_CLOOP_CDEF = """
void *cloop_new(const long long *cfg, long long cfg_len);
void cloop_free(void *cp);
long long cloop_set_trace(void *cp, long long tid, long long n,
    const long long *co, const long long *cd, const long long *cs1,
    const long long *cs2, const long long *cpc, const long long *ctk,
    const long long *cml, const long long *cind, const long long *ctg,
    const long long *ccomp, const long long *cplain,
    const long long *cpcls, const long long *cdk, const long long *clat,
    const long long *cns);
void cloop_prewarm(void *cp, const long long *lines, long long n);
void cloop_seed_policy(void *cp, const long long *state);
long long cloop_run(void *cp, long long limit, long long stop_mode,
                    long long commit_target, long long single);
long long cloop_export(void *cp, long long *out, long long cap);
void cloop_reset_stats(void *cp);
long long cloop_err(void *cp, long long which);
"""

# --------------------------------------------------------------------- #
# C source, part 1: runtime infrastructure                              #
# --------------------------------------------------------------------- #

_C_INFRA = r"""
#include <stdlib.h>
#include <string.h>

typedef long long i64;
typedef unsigned long long u64;
typedef unsigned char u8;

#define EMPTYK ((i64)0x8000000000000000LL)
#define TOMBK  ((i64)(0x8000000000000000LL + 1))
#define READY_EVERYWHERE (-2)
#define WAIT_PHYS_MASK ((1LL << 29) - 1)

/* ---- growable i64 vector ---- */
typedef struct { i64 *d; i64 n, cap; } vec;

static void vec_push(vec *v, i64 x) {
    if (v->n == v->cap) {
        v->cap = v->cap ? v->cap * 2 : 8;
        v->d = (i64 *)realloc(v->d, (size_t)v->cap * sizeof(i64));
    }
    v->d[v->n++] = x;
}

static void vec_reset(vec *v) { v->n = 0; }

static void vec_destroy(vec *v) { free(v->d); v->d = 0; v->n = v->cap = 0; }

/* ---- ring deque (power-of-two capacity) ---- */
typedef struct { i64 *d; i64 cap, head, n; } ring;

static void ring_init(ring *r) {
    r->cap = 16;
    r->d = (i64 *)malloc((size_t)r->cap * sizeof(i64));
    r->head = 0;
    r->n = 0;
}

static void ring_grow(ring *r) {
    i64 ncap = r->cap * 2;
    i64 *nd = (i64 *)malloc((size_t)ncap * sizeof(i64));
    for (i64 i = 0; i < r->n; i++) nd[i] = r->d[(r->head + i) & (r->cap - 1)];
    free(r->d);
    r->d = nd;
    r->cap = ncap;
    r->head = 0;
}

static void ring_push(ring *r, i64 x) {
    if (r->n == r->cap) ring_grow(r);
    r->d[(r->head + r->n) & (r->cap - 1)] = x;
    r->n++;
}

static i64 ring_get(const ring *r, i64 i) {
    return r->d[(r->head + i) & (r->cap - 1)];
}

static i64 ring_popleft(ring *r) {
    i64 x = r->d[r->head];
    r->head = (r->head + 1) & (r->cap - 1);
    r->n--;
    return x;
}

static i64 ring_pop(ring *r) {
    r->n--;
    return r->d[(r->head + r->n) & (r->cap - 1)];
}

static i64 ring_last(const ring *r) {
    return r->d[(r->head + r->n - 1) & (r->cap - 1)];
}

static void ring_clear(ring *r) { r->n = 0; r->head = 0; }

static void ring_destroy(ring *r) { free(r->d); r->d = 0; }

/* ---- open-addressing i64 -> i64 hash map ---- */
typedef struct { i64 *keys; i64 *vals; i64 cap, n, used; } imap;

static u64 mix64(u64 z) {
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

static void imap_init(imap *m, i64 cap) {
    m->cap = cap;
    m->n = 0;
    m->used = 0;
    m->keys = (i64 *)malloc((size_t)cap * sizeof(i64));
    m->vals = (i64 *)malloc((size_t)cap * sizeof(i64));
    for (i64 i = 0; i < cap; i++) m->keys[i] = EMPTYK;
}

static void imap_destroy(imap *m) {
    free(m->keys);
    free(m->vals);
    m->keys = m->vals = 0;
}

static void imap_put(imap *m, i64 k, i64 v);

static void imap_rehash(imap *m, i64 ncap) {
    i64 *ok = m->keys, *ov = m->vals, ocap = m->cap;
    imap_init(m, ncap);
    for (i64 i = 0; i < ocap; i++)
        if (ok[i] != EMPTYK && ok[i] != TOMBK) imap_put(m, ok[i], ov[i]);
    free(ok);
    free(ov);
}

static void imap_put(imap *m, i64 k, i64 v) {
    if ((m->used + 1) * 4 >= m->cap * 3)
        imap_rehash(m, m->n * 4 >= m->cap ? m->cap * 2 : m->cap);
    u64 mask = (u64)(m->cap - 1);
    u64 i = mix64((u64)k) & mask;
    i64 tomb = -1;
    for (;;) {
        i64 kk = m->keys[i];
        if (kk == k) { m->vals[i] = v; return; }
        if (kk == EMPTYK) {
            if (tomb >= 0) { m->keys[tomb] = k; m->vals[tomb] = v; }
            else { m->keys[i] = k; m->vals[i] = v; m->used++; }
            m->n++;
            return;
        }
        if (kk == TOMBK && tomb < 0) tomb = (i64)i;
        i = (i + 1) & mask;
    }
}

static int imap_get(const imap *m, i64 k, i64 *out) {
    u64 mask = (u64)(m->cap - 1);
    u64 i = mix64((u64)k) & mask;
    for (;;) {
        i64 kk = m->keys[i];
        if (kk == k) { *out = m->vals[i]; return 1; }
        if (kk == EMPTYK) return 0;
        i = (i + 1) & mask;
    }
}

static int imap_has(const imap *m, i64 k) {
    i64 tmp;
    return imap_get(m, k, &tmp);
}

static int imap_del(imap *m, i64 k, i64 *out) {
    u64 mask = (u64)(m->cap - 1);
    u64 i = mix64((u64)k) & mask;
    for (;;) {
        i64 kk = m->keys[i];
        if (kk == k) {
            if (out) *out = m->vals[i];
            m->keys[i] = TOMBK;
            m->n--;
            return 1;
        }
        if (kk == EMPTYK) return 0;
        i = (i + 1) & mask;
    }
}

/* ---- binary min-heap over unique i64 keys ----
 * Keys carry globally unique ages in their high bits, so the pop
 * sequence of ANY correct min-heap equals heapq's: each pop returns
 * the unique global minimum. */
static void heap_push(vec *h, i64 key) {
    vec_push(h, key);
    i64 i = h->n - 1;
    while (i > 0) {
        i64 p = (i - 1) / 2;
        if (h->d[p] <= h->d[i]) break;
        i64 t = h->d[p]; h->d[p] = h->d[i]; h->d[i] = t;
        i = p;
    }
}

static i64 heap_pop(vec *h) {
    i64 top = h->d[0];
    i64 last = h->d[--h->n];
    if (h->n) {
        h->d[0] = last;
        i64 i = 0;
        for (;;) {
            i64 l = 2 * i + 1, r = l + 1, s = i;
            if (l < h->n && h->d[l] < h->d[s]) s = l;
            if (r < h->n && h->d[r] < h->d[s]) s = r;
            if (s == i) break;
            i64 t = h->d[s]; h->d[s] = h->d[i]; h->d[i] = t;
            i = s;
        }
    }
    return top;
}

/* ---- linear-list LRU set-associative array ----
 * Exact transcription of the Python list-LRU: scan for the key, move
 * it to the back on a hit (front = oldest), evict the front on a miss
 * in a full set.  Set index is key % nsets on the caller-derived key. */
typedef struct {
    i64 *data;
    i64 *cnt;
    i64 nsets, assoc;
    i64 hits, misses, evictions;
} lru;

static void lru_init(lru *c, i64 nsets, i64 assoc) {
    c->nsets = nsets;
    c->assoc = assoc;
    c->data = (i64 *)malloc((size_t)(nsets * assoc) * sizeof(i64));
    c->cnt = (i64 *)calloc((size_t)nsets, sizeof(i64));
    c->hits = c->misses = c->evictions = 0;
}

static void lru_destroy(lru *c) {
    free(c->data);
    free(c->cnt);
    c->data = c->cnt = 0;
}

static int lru_access(lru *c, i64 key) {
    i64 si = key % c->nsets;
    i64 *s = c->data + si * c->assoc;
    i64 n = c->cnt[si];
    for (i64 i = 0; i < n; i++) {
        if (s[i] == key) {
            if (i != n - 1) {
                memmove(s + i, s + i + 1, (size_t)(n - 1 - i) * sizeof(i64));
                s[n - 1] = key;
            }
            c->hits++;
            return 1;
        }
    }
    c->misses++;
    if (n >= c->assoc) {
        memmove(s, s + 1, (size_t)(n - 1) * sizeof(i64));
        s[n - 1] = key;
        c->evictions++;
    } else {
        s[n] = key;
        c->cnt[si] = n + 1;
    }
    return 0;
}

/* ---- physical register file ---- */
typedef struct {
    i64 cap;
    i64 unbounded;
    i64 *free_;           /* stack; pop from the end (Python list.pop) */
    i64 free_n;
    u8 *ready;
    i64 *wait;            /* phys -> waiter-list pool index, or -1 */
    i64 in_use, peak, alloc_count;
} rf;

static void rf_init(rf *f, i64 cap, i64 unbounded) {
    f->cap = cap;
    f->unbounded = unbounded;
    f->free_ = (i64 *)malloc((size_t)cap * sizeof(i64));
    /* Python: _free = [cap-1, ..., 0]; pop() -> 0 first */
    for (i64 i = 0; i < cap; i++) f->free_[i] = cap - 1 - i;
    f->free_n = cap;
    f->ready = (u8 *)calloc((size_t)cap, 1);
    f->wait = (i64 *)malloc((size_t)cap * sizeof(i64));
    for (i64 i = 0; i < cap; i++) f->wait[i] = -1;
    f->in_use = f->peak = f->alloc_count = 0;
}

static void rf_destroy(rf *f) {
    free(f->free_);
    free(f->ready);
    free(f->wait);
    f->free_ = f->wait = 0;
    f->ready = 0;
}

/* ---- per-thread context ---- */
typedef struct {
    i64 cursor, n_records;
    i64 fbu, rbu;                 /* fetch/rename blocked-until */
    i64 wrong_path;
    i64 icount, l2_pending, first_l2_miss;
    i64 committed, frp;           /* frp = fetched_right_path */
    i64 wp_cursor;
    ring fq, infl, rob;
    i64 rob_peak;
    i64 *atcl, *atph, *atrp;      /* rename table columns */
    i64 memo_entry, memo_gen, memo_epoch, memo_cause;
    /* policy state: Stall/Flush+ gates; registers held [class][cluster]
     * (copies charged to their thread); CDPRF threshold, RFOC,
     * Starvation and its pending flag, per class */
    i64 gated, flushed;
    i64 usage[2][2];
    i64 thr[2], rfoc[2], starv[2], starved_now[2];
    /* owned trace column copies */
    i64 *co, *cd, *cs1, *cs2, *cpc, *ctk, *cml, *cind, *ctg, *ccomp;
    i64 *cplain, *cpcls, *cdk, *clat, *cns;
} tctx;
"""
# --------------------------------------------------------------------- #
# C source, part 2: engine context and machine helpers                  #
# --------------------------------------------------------------------- #

_C_CTX = r"""
/* ---- the resident engine ---- */
typedef struct cloop {
    /* config */
    i64 n_threads, fetch_width, rename_width, commit_width, fq_cap;
    i64 misp_pipe, mrom_lat, model_wp;
    i64 iq_cap[2], max_scan[2];
    i64 rob_cap, rob_unbounded, mob_cap;
    i64 icn_links, icn_lat;
    i64 num_int, num_arch, imb_threshold;
    i64 policy_kind, dispatch_trivial, memo_on, forced_mode;
    i64 interval, rf_total[2];    /* CDPRF: interval, register totals */
    i64 slot_bits, max_slots, watchdog;
    i64 latency[8], copy_pcls;
    i64 OP_LOAD, OP_STORE, OP_BRANCH, OP_COPY;

    /* memory hierarchy */
    lru l1, l2, dtlb, itlb, tcl;
    i64 l1_lat, l2_lat, mem_lat, d_lpp, d_miss;
    i64 nbuses, *bus, bus_wait, coalesced;
    imap infl_fills;
    i64 i_lpp, i_miss, tc_line_uops, tc_fill_lat, tc_hits, tc_misses;

    /* predictors */
    u8 *bp_table;
    i64 bp_mask, bp_hist_bits, *bp_hist, bp_lookups, bp_correct;
    i64 *ip_targets, ip_mask, ip_lookups, ip_correct;

    /* interconnect */
    ring icn_pending;
    vec icn_when, icn_key, icn_when2, icn_key2, arrived;
    i64 icn_transfers, icn_qwait;

    /* MOB */
    i64 mob_occ, mob_peak, mob_forwards, *mob_pt;
    imap *mob_lines;              /* per thread: line -> count */

    /* issue queues */
    i64 iq_occ[2], iq_peak[2];
    i64 *iq_pt[2];

    /* register files [cluster][kind] */
    rf files[2][2];

    /* shared vec pool (waiter lists + wheel buckets) */
    vec *pool;
    i64 pool_n, pool_cap;
    i64 *pool_free, pool_free_n, pool_free_cap;

    /* event wheels: cycle -> pool bucket index */
    imap ev_map, fill_map;

    /* slot pool */
    i64 cap;
    i64 *free_slots, free_n;
    i64 *p_op, *p_dest, *p_s1, *p_s2, *p_seq, *p_ml, *p_lat, *p_tid;
    i64 *p_age, *p_gen, *p_cl, *p_pref, *p_pd, *p_pp, *p_ppc, *p_pr;
    i64 *p_wc, *p_mob, *p_w0, *p_w1;
    u8 *p_destk, *p_pcls, *p_wp, *p_iss, *p_sq, *p_done, *p_misp, *p_orph;
    u8 *p_l2m;                    /* right-path load that missed in L2 */

    /* select structures (issued: this cycle's port winners, executed
     * after the scan) */
    vec heap[2], deferred[2], defer2[2], passed[2], issued[2];

    /* threads */
    tctx *t;

    /* global machine scalars */
    i64 cycle, age, commit_rr, last_commit, epoch, finished_count;
    i64 policy_rr;

    /* stats (zeroed by cloop_reset_stats) */
    i64 s_cycles, s_committed, s_renamed, s_fetched, s_issued;
    i64 s_copies_renamed, s_copies_arrived;
    i64 s_iq_stalls, s_iq_block_stalls;
    i64 rsc[5], rse[2];
    i64 s_mispredicts, s_squashed, s_wpf, s_wpr;
    i64 imb[3][2], s_imb_cycles, s_issue_cycles;
    i64 s_flushes, s_stalled;     /* Flush+ flushes, Stall gated cycles */
    i64 *cpt;                     /* committed per thread */

    i64 err, erra;
} cloop;

#define CAUSE_IQ 0
#define CAUSE_RF_INT 1
#define CAUSE_RF_FP 2
#define CAUSE_ROB 3
#define CAUSE_MOB 4

/* policy kinds (_C_POLICY_KINDS); 5-7 are CSSP plus a register rule,
 * 8-9 are Icount plus an L2-miss rule */
#define K_CSSPRF 5
#define K_CISPRF 6
#define K_CDPRF 7
#define K_STALL 8
#define K_FLUSHP 9

/* ---- shared vec pool ---- */
static i64 pool_acquire(cloop *c) {
    if (c->pool_free_n) return c->pool_free[--c->pool_free_n];
    if (c->pool_n == c->pool_cap) {
        c->pool_cap = c->pool_cap ? c->pool_cap * 2 : 16;
        c->pool = (vec *)realloc(c->pool, (size_t)c->pool_cap * sizeof(vec));
    }
    vec *v = &c->pool[c->pool_n];
    v->d = 0; v->n = 0; v->cap = 0;
    return c->pool_n++;
}

static void pool_release(cloop *c, i64 bi) {
    c->pool[bi].n = 0;
    if (c->pool_free_n == c->pool_free_cap) {
        c->pool_free_cap = c->pool_free_cap ? c->pool_free_cap * 2 : 16;
        c->pool_free = (i64 *)realloc(
            c->pool_free, (size_t)c->pool_free_cap * sizeof(i64));
    }
    c->pool_free[c->pool_free_n++] = bi;
}

/* ---- event wheels ---- */
static void wheel_push(cloop *c, imap *m, i64 cycle, i64 val) {
    i64 bi;
    if (!imap_get(m, cycle, &bi)) {
        bi = pool_acquire(c);
        imap_put(m, cycle, bi);
    }
    vec_push(&c->pool[bi], val);
}

/* ---- register files ----
 * Allocation and free charge (tid, class, cluster) like the policies'
 * on_reg_alloc/on_reg_free hooks (a copy's replica is its thread's). */
static i64 rf_alloc(cloop *c, i64 tid, i64 cl, i64 k) {
    rf *f = &c->files[cl][k];
    if (!f->free_n) {
        if (!f->unbounded) { c->err = 4; return -1; }
        i64 ncap = f->cap * 2;
        f->free_ = (i64 *)realloc(f->free_, (size_t)ncap * sizeof(i64));
        f->ready = (u8 *)realloc(f->ready, (size_t)ncap);
        memset(f->ready + f->cap, 0, (size_t)f->cap);
        f->wait = (i64 *)realloc(f->wait, (size_t)ncap * sizeof(i64));
        for (i64 i = f->cap; i < ncap; i++) f->wait[i] = -1;
        /* Python: _free.extend(range(ncap-1, cap-1, -1)); pop() -> cap */
        for (i64 p = ncap - 1; p >= f->cap; p--) f->free_[f->free_n++] = p;
        f->cap = ncap;
    }
    i64 phys = f->free_[--f->free_n];
    f->ready[phys] = 0;
    f->in_use++;
    f->alloc_count++;
    if (f->in_use > f->peak) f->peak = f->in_use;
    c->t[tid].usage[k][cl]++;
    return phys;
}

/* Mirrors RegisterFile.free(): a freed phys must have no live waiters
 * (an empty waiter list is silently discarded, matching the Python
 * pop-then-raise-if-truthy). */
static void free_phys(cloop *c, i64 tid, i64 cl, i64 k, i64 phys) {
    rf *f = &c->files[cl][k];
    f->ready[phys] = 0;
    i64 bi = f->wait[phys];
    if (bi >= 0) {
        if (c->pool[bi].n) { c->err = 2; return; }
        pool_release(c, bi);
        f->wait[phys] = -1;
    }
    f->free_[f->free_n++] = phys;
    f->in_use--;
    if (--c->t[tid].usage[k][cl] < 0) c->err = 7;
}

static i64 total_usage(const tctx *t, i64 k) {
    return t->usage[k][0] + t->usage[k][1];
}

static void add_waiter(cloop *c, i64 cl, i64 k, i64 phys, i64 sl) {
    rf *f = &c->files[cl][k];
    i64 bi = f->wait[phys];
    if (bi < 0) {
        bi = pool_acquire(c);
        f->wait[phys] = bi;
    }
    vec_push(&c->pool[bi], sl);
}

/* Wake every slot waiting on (cl, k, phys): decrement the wait count
 * and push newly-ready valid uops into the home-cluster ready heap, in
 * waiter-list order (== Python's list iteration order). */
static void wake_waiters(cloop *c, i64 cl, i64 k, i64 phys) {
    rf *f = &c->files[cl][k];
    i64 bi = f->wait[phys];
    if (bi < 0) return;
    f->wait[phys] = -1;
    vec *w = &c->pool[bi];
    for (i64 i = 0; i < w->n; i++) {
        i64 sl = w->d[i];
        i64 wc = --c->p_wc[sl];
        if (wc == 0 && !c->p_sq[sl] && !c->p_iss[sl])
            heap_push(&c->heap[c->p_cl[sl]],
                      (c->p_age[sl] << c->slot_bits) | sl);
    }
    pool_release(c, bi);
}

/* ---- memory hierarchy (transcribes vectorized.make_mem_access) ---- */
static i64 mem_access(cloop *c, i64 line, i64 now, int *l2_miss) {
    *l2_miss = 0;
    if (c->infl_fills.n > 64) {
        imap *m = &c->infl_fills;
        for (i64 i = 0; i < m->cap; i++) {
            i64 k = m->keys[i];
            if (k != EMPTYK && k != TOMBK && m->vals[i] <= now) {
                m->keys[i] = TOMBK;
                m->n--;
            }
        }
    }
    i64 lat = lru_access(&c->dtlb, line / c->d_lpp)
                  ? c->l1_lat
                  : c->l1_lat + c->d_miss;
    i64 fill_done;
    if (imap_get(&c->infl_fills, line, &fill_done) && fill_done > now) {
        c->coalesced++;
        lru_access(&c->l1, line);
        i64 rem = fill_done - now;
        return rem > lat ? rem : lat;
    }
    if (lru_access(&c->l1, line)) return lat;
    i64 bi;
    if (c->nbuses == 2) {
        bi = c->bus[0] <= c->bus[1] ? 0 : 1;
    } else {
        bi = 0;
        for (i64 i = 1; i < c->nbuses; i++)
            if (c->bus[i] < c->bus[bi]) bi = i;
    }
    i64 wait = c->bus[bi] - now;
    if (wait < 0) wait = 0;
    c->bus[bi] = now + wait + 1;
    c->bus_wait += wait;
    lat += wait;
    if (lru_access(&c->l2, line)) {
        lat += c->l2_lat;
        imap_put(&c->infl_fills, line, now + lat);
        return lat;
    }
    lat += c->l2_lat + c->mem_lat;
    imap_put(&c->infl_fills, line, now + lat);
    *l2_miss = 1;
    return lat;
}

/* ---- trace cache (transcribes vectorized.make_tc_lookup) ---- */
static i64 tc_lookup(cloop *c, i64 pc) {
    i64 itlb_lat = lru_access(&c->itlb, pc / c->i_lpp) ? 0 : c->i_miss;
    if (lru_access(&c->tcl, pc / c->tc_line_uops)) {
        c->tc_hits++;
        return itlb_lat;
    }
    c->tc_misses++;
    return c->tc_fill_lat + itlb_lat;
}

/* ---- branch predictors (transcribe frontend.branch) ---- */
static int bp_update(cloop *c, i64 tid, i64 pc, int taken) {
    i64 idx = (pc ^ (c->bp_hist[tid] << 2)) & c->bp_mask;
    i64 ctr = c->bp_table[idx];
    int predicted = ctr >= 2;
    if (taken) {
        if (ctr < 3) c->bp_table[idx] = (u8)(ctr + 1);
    } else {
        if (ctr > 0) c->bp_table[idx] = (u8)(ctr - 1);
    }
    c->bp_hist[tid] =
        ((c->bp_hist[tid] << 1) | (taken ? 1 : 0)) &
        ((1LL << c->bp_hist_bits) - 1);
    c->bp_lookups++;
    if (predicted == taken) c->bp_correct++;
    return predicted;
}

static int ip_update(cloop *c, i64 tid, i64 pc, i64 target) {
    i64 idx = (pc ^ (tid << 9)) & c->ip_mask;
    i64 predicted = c->ip_targets[idx];
    c->ip_targets[idx] = target;
    c->ip_lookups++;
    int hit = predicted == target;
    if (hit) c->ip_correct++;
    return hit;
}

/* ---- MOB line tables ---- */
static void mob_remember(cloop *c, i64 tid, i64 line) {
    i64 n = 0;
    imap_get(&c->mob_lines[tid], line, &n);
    imap_put(&c->mob_lines[tid], line, n + 1);
}

static void mob_forget(cloop *c, i64 tid, i64 line) {
    /* lines.get(ml, 0); cnt <= 1 -> pop(ml, None): tolerant of absent */
    i64 n = 0;
    imap_get(&c->mob_lines[tid], line, &n);
    if (n <= 1) imap_del(&c->mob_lines[tid], line, 0);
    else imap_put(&c->mob_lines[tid], line, n - 1);
}

/* ---- slot pool growth (doubling) ---- */
static i64 pgrow_i64(i64 *old, i64 ocap, i64 ncap, i64 fill, i64 **out) {
    i64 *nd = (i64 *)malloc((size_t)ncap * sizeof(i64));
    memcpy(nd, old, (size_t)ocap * sizeof(i64));
    for (i64 i = ocap; i < ncap; i++) nd[i] = fill;
    free(old);
    *out = nd;
    return 0;
}

static i64 pgrow_u8(u8 *old, i64 ocap, i64 ncap, u8 **out) {
    u8 *nd = (u8 *)calloc((size_t)ncap, 1);
    memcpy(nd, old, (size_t)ocap);
    free(old);
    *out = nd;
    return 0;
}

static int pool_grow(cloop *c) {
    i64 ocap = c->cap, ncap = ocap * 2;
    if (ncap > c->max_slots) { c->err = 6; return -1; }
    pgrow_i64(c->p_op, ocap, ncap, 0, &c->p_op);
    pgrow_i64(c->p_dest, ocap, ncap, 0, &c->p_dest);
    pgrow_i64(c->p_s1, ocap, ncap, 0, &c->p_s1);
    pgrow_i64(c->p_s2, ocap, ncap, 0, &c->p_s2);
    pgrow_i64(c->p_seq, ocap, ncap, 0, &c->p_seq);
    pgrow_i64(c->p_ml, ocap, ncap, 0, &c->p_ml);
    pgrow_i64(c->p_lat, ocap, ncap, 0, &c->p_lat);
    pgrow_i64(c->p_tid, ocap, ncap, 0, &c->p_tid);
    pgrow_i64(c->p_age, ocap, ncap, -1, &c->p_age);
    pgrow_i64(c->p_gen, ocap, ncap, 0, &c->p_gen);
    pgrow_i64(c->p_cl, ocap, ncap, 0, &c->p_cl);
    pgrow_i64(c->p_pref, ocap, ncap, 0, &c->p_pref);
    pgrow_i64(c->p_pd, ocap, ncap, 0, &c->p_pd);
    pgrow_i64(c->p_pp, ocap, ncap, 0, &c->p_pp);
    pgrow_i64(c->p_ppc, ocap, ncap, 0, &c->p_ppc);
    pgrow_i64(c->p_pr, ocap, ncap, 0, &c->p_pr);
    pgrow_i64(c->p_wc, ocap, ncap, 0, &c->p_wc);
    pgrow_i64(c->p_mob, ocap, ncap, -1, &c->p_mob);
    pgrow_i64(c->p_w0, ocap, ncap, -1, &c->p_w0);
    pgrow_i64(c->p_w1, ocap, ncap, -1, &c->p_w1);
    pgrow_u8(c->p_destk, ocap, ncap, &c->p_destk);
    pgrow_u8(c->p_pcls, ocap, ncap, &c->p_pcls);
    pgrow_u8(c->p_wp, ocap, ncap, &c->p_wp);
    pgrow_u8(c->p_iss, ocap, ncap, &c->p_iss);
    pgrow_u8(c->p_sq, ocap, ncap, &c->p_sq);
    pgrow_u8(c->p_done, ocap, ncap, &c->p_done);
    pgrow_u8(c->p_misp, ocap, ncap, &c->p_misp);
    pgrow_u8(c->p_orph, ocap, ncap, &c->p_orph);
    pgrow_u8(c->p_l2m, ocap, ncap, &c->p_l2m);
    c->free_slots =
        (i64 *)realloc(c->free_slots, (size_t)ncap * sizeof(i64));
    /* free_slots.extend(range(ncap-1, ocap-1, -1)): pop() -> ocap first */
    for (i64 s = ncap - 1; s >= ocap; s--) c->free_slots[c->free_n++] = s;
    c->cap = ncap;
    return 0;
}
"""
# --------------------------------------------------------------------- #
# C source, part 3: copy generation, squash, mispredict, admission      #
# --------------------------------------------------------------------- #

_C_MACHINE = r"""
/* ---- copy generation (transcribes _soa_copy) ---- */
static i64 make_copy(cloop *c, i64 tid, i64 consumer_sl, i64 arch,
                     i64 target_cluster) {
    tctx *t = &c->t[tid];
    i64 home = t->atcl[arch];
    i64 hphys = t->atph[arch];
    i64 k = arch < c->num_int ? 0 : 1;
    i64 replica = rf_alloc(c, tid, target_cluster, k);
    if (c->err) return -1;
    t->atrp[arch] = replica;
    i64 sl = c->free_slots[--c->free_n];
    c->p_op[sl] = c->OP_COPY;
    c->p_dest[sl] = arch;
    c->p_s1[sl] = arch;
    c->p_s2[sl] = -1;
    c->p_seq[sl] = -1;
    c->p_lat[sl] = c->latency[c->OP_COPY];
    c->p_tid[sl] = tid;
    c->p_pcls[sl] = (u8)c->copy_pcls;
    c->p_destk[sl] = (u8)k;
    c->p_wp[sl] = c->p_wp[consumer_sl];
    c->p_cl[sl] = home;
    c->p_pref[sl] = target_cluster;
    c->p_pd[sl] = replica;
    c->p_gen[sl]++;
    c->p_iss[sl] = 0;
    c->p_sq[sl] = 0;
    c->p_done[sl] = 0;
    c->p_misp[sl] = 0;
    c->p_orph[sl] = 0;
    c->p_l2m[sl] = 0;
    i64 w0 = -1, wait = 0;
    if (!c->files[home][k].ready[hphys]) {
        add_waiter(c, home, k, hphys, sl);
        w0 = (home << 30) | (k << 29) | hphys;
        wait = 1;
    }
    c->p_wc[sl] = wait;
    c->p_w0[sl] = w0;
    c->p_w1[sl] = -1;
    i64 age = c->age++;
    c->p_age[sl] = age;
    if (c->iq_occ[home] >= c->iq_cap[home]) {
        c->err = 1;
        c->erra = home;
        return -1;
    }
    i64 occ = ++c->iq_occ[home];
    c->iq_pt[home][tid]++;
    if (occ > c->iq_peak[home]) c->iq_peak[home] = occ;
    if (wait == 0) heap_push(&c->heap[home], (age << c->slot_bits) | sl);
    ring_push(&t->infl, sl);
    t->icount++;
    c->s_copies_renamed++;
    return replica;
}

/* ---- squash (transcribes _soa_squash_younger) ---- */
static void squash_younger(cloop *c, i64 tid, i64 keep_age, int rewind) {
    tctx *t = &c->t[tid];
    i64 min_seq = -1;
    int have_min = 0;
    i64 n_squashed = 0;
    while (t->infl.n && c->p_age[ring_last(&t->infl)] > keep_age) {
        i64 sl = ring_pop(&t->infl);
        c->p_sq[sl] = 1;
        n_squashed++;
        if (!c->p_iss[sl]) {
            i64 cl = c->p_cl[sl];
            c->iq_occ[cl]--;
            c->iq_pt[cl][tid]--;
            t->icount--;
            for (int wi = 0; wi < 2; wi++) {
                i64 w = wi ? c->p_w1[sl] : c->p_w0[sl];
                if (w != -1) {
                    rf *f = &c->files[w >> 30][(w >> 29) & 1];
                    i64 phys = w & WAIT_PHYS_MASK;
                    i64 bi = f->wait[phys];
                    if (bi >= 0) {
                        vec *lst = &c->pool[bi];
                        for (i64 j = 0; j < lst->n; j++) {
                            if (lst->d[j] == sl) {
                                memmove(lst->d + j, lst->d + j + 1,
                                        (size_t)(lst->n - 1 - j) *
                                            sizeof(i64));
                                lst->n--;
                                break;
                            }
                        }
                        if (!lst->n) {
                            pool_release(c, bi);
                            f->wait[phys] = -1;
                        }
                    }
                }
            }
        }
        if (c->p_op[sl] == c->OP_COPY) {
            i64 dest = c->p_dest[sl];
            i64 phys = c->p_pd[sl];
            if (t->atrp[dest] == phys) t->atrp[dest] = -1;
            i64 k = c->p_destk[sl];
            free_phys(c, tid, c->p_pref[sl], k, phys);
            if (c->err) return;
        } else {
            i64 dest = c->p_dest[sl];
            if (dest != -1) {
                t->atcl[dest] = c->p_ppc[sl];
                t->atph[dest] = c->p_pp[sl];
                t->atrp[dest] = c->p_pr[sl];
                free_phys(c, tid, c->p_cl[sl], c->p_destk[sl], c->p_pd[sl]);
                if (c->err) return;
            }
            i64 opc = c->p_op[sl];
            if (opc == c->OP_LOAD || opc == c->OP_STORE) {
                i64 mi = c->p_mob[sl];
                if (mi >= 0) {
                    c->mob_occ--;
                    c->mob_pt[tid]--;
                    c->p_mob[sl] = -1;
                    if (c->mob_occ < 0) { c->err = 3; return; }
                    if (mi == 2) mob_forget(c, tid, c->p_ml[sl]);
                    if (c->err) return;
                }
            }
            if (c->p_misp[sl] && !c->p_wp[sl]) t->wrong_path = 0;
            if (!c->p_wp[sl] && c->p_seq[sl] >= 0) {
                i64 sq = c->p_seq[sl];
                if (!have_min || sq < min_seq) min_seq = sq;
                have_min = 1;
            }
        }
        c->free_slots[c->free_n++] = sl;
    }
    c->s_squashed += n_squashed;
    c->epoch++;
    while (t->rob.n && c->p_age[ring_last(&t->rob)] > keep_age)
        ring_pop(&t->rob);
    for (i64 i = 0; i < t->fq.n; i++) {
        i64 entry = ring_get(&t->fq, i);
        if (entry & 1) {
            i64 sl = entry >> 1;
            if (!c->p_wp[sl] && c->p_seq[sl] >= 0) {
                i64 sq = c->p_seq[sl];
                if (!have_min || sq < min_seq) min_seq = sq;
                have_min = 1;
            }
            if (c->p_misp[sl] && !c->p_wp[sl]) t->wrong_path = 0;
            c->free_slots[c->free_n++] = sl;
        } else {
            i64 sq = entry >> 1;
            if (!have_min || sq < min_seq) min_seq = sq;
            have_min = 1;
        }
    }
    ring_clear(&t->fq);
    if (have_min) {
        if (!rewind) { c->err = 5; return; }
        if (min_seq < t->cursor) t->cursor = min_seq;
    }
}

/* ---- mispredict resolution (transcribes _soa_resolve_mispredict) ---- */
static void resolve_misp(cloop *c, i64 branch_sl) {
    i64 tid = c->p_tid[branch_sl];
    squash_younger(c, tid, c->p_age[branch_sl], 0);
    if (c->err) return;
    tctx *t = &c->t[tid];
    t->wrong_path = 0;
    i64 nb = c->cycle + c->misp_pipe;
    if (nb > t->fbu) t->fbu = nb;
    c->s_mispredicts++;
}

/* ---- Flush+ (transcribes flush_thread and FlushPlusPolicy) ----
 * keep_age < 0: keep up to the oldest pending L2-missing load, if any */
static void flush_thread(cloop *c, i64 tid, i64 keep_age) {
    tctx *t = &c->t[tid];
    if (keep_age < 0) {
        for (i64 i = 0; i < t->infl.n; i++) {   /* in age order */
            i64 sl = ring_get(&t->infl, i);
            if (c->p_l2m[sl] && !c->p_done[sl]) {
                keep_age = c->p_age[sl];
                break;
            }
        }
        if (keep_age < 0) return;
    }
    squash_younger(c, tid, keep_age, 1);
    if (c->err) return;
    t->flushed = 1;
    c->s_flushes++;
}

static void flushplus_on_l2_miss(cloop *c, i64 tid, i64 age, i64 cycle) {
    i64 n_missing = 0, earliest = -1, best = 0;
    for (i64 ti = 0; ti < c->n_threads; ti++) {
        const tctx *t = &c->t[ti];
        if (t->l2_pending <= 0) continue;
        n_missing++;
        i64 first = t->first_l2_miss >= 0 ? t->first_l2_miss : cycle;
        if (earliest < 0 || first < best) {
            earliest = ti;
            best = first;
        }
    }
    if (n_missing <= 1) {               /* sole misser: plain Flush */
        if (!c->t[tid].flushed) flush_thread(c, tid, age);
        return;
    }
    /* several missers: the earliest continues, the rest are flushed */
    for (i64 ti = 0; ti < c->n_threads; ti++) {
        tctx *t = &c->t[ti];
        if (t->l2_pending <= 0) continue;
        if (ti == earliest) {
            t->flushed = 0;
        } else if (!t->flushed) {
            flush_thread(c, ti, ti == tid ? age : -1);
            if (c->err) return;
        }
    }
}

/* ---- issue-time execution (transcribes _start_execution past the
 * IQ release); the L2-miss point runs the policy's on_l2_miss ---- */
static void start_exec(cloop *c, i64 sl, i64 key, i64 cycle) {
    i64 tid = c->p_tid[sl];
    tctx *t = &c->t[tid];
    i64 opc = c->p_op[sl];
    i64 lat = c->p_lat[sl];
    if (opc == c->OP_LOAD) {
        i64 ml = c->p_ml[sl];
        if (imap_has(&c->mob_lines[tid], ml)) {
            c->mob_forwards++;
            lat += 1;
        } else {
            int l2m;
            lat += mem_access(c, ml, cycle, &l2m);
            if (l2m && !c->p_wp[sl]) {
                c->p_l2m[sl] = 1;
                if (t->l2_pending == 0) t->first_l2_miss = cycle;
                t->l2_pending++;
                wheel_push(c, &c->fill_map, cycle + lat, tid);
                if (c->policy_kind == K_STALL)
                    t->gated = 1;
                else if (c->policy_kind == K_FLUSHP)
                    flushplus_on_l2_miss(c, tid, c->p_age[sl], cycle);
            }
        }
    } else if (opc == c->OP_STORE) {
        int l2m;
        i64 ml = c->p_ml[sl];
        mem_access(c, ml, cycle, &l2m);
        c->p_mob[sl] = 2;
        mob_remember(c, tid, ml);
    }
    wheel_push(c, &c->ev_map, cycle + lat, key);
}

/* ---- CDPRF start-of-cycle counters (Figures 7 and 8) ---- */
static void cdprf_on_cycle(cloop *c, i64 cycle) {
    for (i64 ti = 0; ti < c->n_threads; ti++) {
        tctx *t = &c->t[ti];
        for (int k = 0; k < 2; k++) {
            if (t->starved_now[k]) {
                t->starv[k]++;
                t->starved_now[k] = 0;
            } else {
                t->starv[k] = 0;
            }
            t->rfoc[k] += total_usage(t, k) + t->starv[k];
        }
    }
    if (cycle % c->interval) return;
    /* interval end: re-partition, then invalidate memoized admissions */
    for (i64 ti = 0; ti < c->n_threads; ti++) {
        tctx *t = &c->t[ti];
        for (int k = 0; k < 2; k++) {
            i64 avg = t->rfoc[k] / c->interval;
            i64 cap = c->rf_total[k] / c->n_threads;
            if (cap < 1) cap = 1;
            i64 th = avg < cap ? avg : cap;
            t->thr[k] = th < 1 ? 1 : th;
            t->rfoc[k] = 0;
        }
    }
    c->epoch++;
}

/* ---- policy admission (transcribes may_dispatch_group loops) ---- */
static int may_dispatch_group(cloop *c, i64 tid, i64 n0, i64 n1) {
    switch (c->policy_kind) {
    case 0:                     /* ICOUNT (Stall, Flush+): admit everything */
    case K_STALL:
    case K_FLUSHP:
        return 1;
    case 1: {                   /* CISP: total-IQ equal share, one call */
        i64 used = c->iq_pt[0][tid] + c->iq_pt[1][tid];
        i64 total_cap = c->iq_cap[0] + c->iq_cap[1];
        return used + (n0 + n1) <= total_cap / c->n_threads;
    }
    case 2:                     /* CSSP: per-cluster equal IQ share */
    case K_CSSPRF:              /* (the register schemes run on CSSP) */
    case K_CISPRF:
    case K_CDPRF: {
        for (i64 cl = 0; cl < 2; cl++) {
            i64 n = cl ? n1 : n0;
            if (!n) continue;
            i64 share = c->iq_cap[cl] / c->n_threads;
            if (share < 1) share = 1;
            if (c->iq_pt[cl][tid] + n > share) return 0;
        }
        return 1;
    }
    case 3: {                   /* CSPSP: reserved slice + shared pool */
        for (i64 cl = 0; cl < 2; cl++) {
            i64 n = cl ? n1 : n0;
            if (!n) continue;
            i64 cap = c->iq_cap[cl];
            i64 reserved = cap / (2 * c->n_threads);
            if (reserved < 1) reserved = 1;
            i64 pt = c->iq_pt[cl][tid];
            if (pt + n <= reserved) continue;
            i64 shared_cap = cap - reserved * c->n_threads;
            i64 shared_used = 0;
            for (i64 th = 0; th < c->n_threads; th++) {
                i64 over = c->iq_pt[cl][th] - reserved;
                if (over > 0) shared_used += over;
            }
            i64 a = pt + n - reserved;
            if (a < 0) a = 0;
            i64 b = pt - reserved;
            if (b < 0) b = 0;
            if (shared_used + (a - b) > shared_cap) return 0;
        }
        return 1;
    }
    default: {                  /* PC: home cluster only */
        i64 homecl = tid % 2;
        if (n0 && homecl != 0) return 0;
        if (n1 && homecl != 1) return 0;
        return 1;
    }
    }
}

/* ---- register admission (transcribes may_alloc_reg) ---- */
static int may_alloc_reg(cloop *c, i64 tid, i64 k, i64 cl, i64 needed) {
    const tctx *t = &c->t[tid];
    switch (c->policy_kind) {
    case K_CSSPRF: {            /* 1/N of this cluster's live file */
        i64 share = c->files[cl][k].cap / c->n_threads;
        if (share < 1) share = 1;
        return t->usage[k][cl] + needed <= share;
    }
    case K_CISPRF: {            /* 1/N of both clusters' live files */
        i64 share = (c->files[0][k].cap + c->files[1][k].cap) / c->n_threads;
        if (share < 1) share = 1;
        return total_usage(t, k) + needed <= share;
    }
    case K_CDPRF: {             /* reserve-then-share */
        if (total_usage(t, k) + needed <= t->thr[k]) return 1;
        i64 total_free = c->files[0][k].free_n + c->files[1][k].free_n;
        i64 reserved_unused = 0;
        for (i64 o = 0; o < c->n_threads; o++) {
            if (o == tid) continue;
            i64 r = c->t[o].thr[k] - total_usage(&c->t[o], k);
            if (r > 0) reserved_unused += r;
        }
        return total_free - needed >= reserved_unused;
    }
    default:
        return 1;
    }
}

/* ---- one admission attempt for a candidate cluster ----
 * Returns -1 on success or the blocking CAUSE_* otherwise; transcribes
 * the unrolled per-cluster admission check in the vectorized rename
 * phase. */
static i64 admission_try(cloop *c, i64 cl, i64 tid, i64 s1, i64 s2,
                         int both1, i64 scl1, int both2, i64 scl2,
                         i64 dest) {
    i64 iqn0 = cl == 0 ? 1 : 0;
    i64 iqn1 = cl == 0 ? 0 : 1;
    i64 rint = 0, rfp = 0;
    if (s1 >= 0 && !both1 && scl1 != cl) {
        if (scl1 == 0) iqn0++; else iqn1++;
        if (s1 < c->num_int) rint++; else rfp++;
    }
    if (s2 >= 0 && s2 != s1 && !both2 && scl2 != cl) {
        if (scl2 == 0) iqn0++; else iqn1++;
        if (s2 < c->num_int) rint++; else rfp++;
    }
    if (dest >= 0) {
        if (dest < c->num_int) rint++; else rfp++;
    }
    if (iqn0 && c->iq_cap[0] - c->iq_occ[0] < iqn0) return CAUSE_IQ;
    if (iqn1 && c->iq_cap[1] - c->iq_occ[1] < iqn1) return CAUSE_IQ;
    if (!c->dispatch_trivial && !may_dispatch_group(c, tid, iqn0, iqn1))
        return CAUSE_IQ;
    if (rint && ((!c->files[cl][0].unbounded &&
                  c->files[cl][0].free_n < rint) ||
                 !may_alloc_reg(c, tid, 0, cl, rint)))
        return CAUSE_RF_INT;
    if (rfp && ((!c->files[cl][1].unbounded &&
                 c->files[cl][1].free_n < rfp) ||
                !may_alloc_reg(c, tid, 1, cl, rfp)))
        return CAUSE_RF_FP;
    return -1;
}
"""
# --------------------------------------------------------------------- #
# C source, part 4: the whole-loop cycle engine                         #
# --------------------------------------------------------------------- #

_C_RUN = r"""
/* Run cycles until limit / the stop condition (one cycle when single).
 * Exit codes: 0 = limit, 1 = stop condition ("done"), 2 = watchdog,
 * 3 = pool past max_slots, 4 = machine invariant error (see err). */
long long cloop_run(void *cp, i64 limit, i64 stop_mode, i64 commit_target,
                    i64 single) {
    cloop *c = (cloop *)cp;
    const i64 SM = (1LL << c->slot_bits) - 1;
    const i64 SB = c->slot_bits;
    int warmup = commit_target >= 0;
    i64 headroom = c->fetch_width + 3 * c->rename_width + 4;
    i64 cycle = c->cycle;
    i64 rc = 0;

    while (cycle < limit) {
        /* ---- stop conditions ---- */
        if (warmup) {
            if (c->s_committed >= commit_target) { rc = 1; break; }
        } else if (stop_mode == 0) {
            if (c->finished_count > 0) { rc = 1; break; }
        } else if (stop_mode == 1) {
            if (c->finished_count >= c->n_threads) { rc = 1; break; }
        }

        /* ---- pool headroom (the only safe grow point) ---- */
        if (c->free_n < headroom) {
            if (pool_grow(c)) return 3;
            continue;   /* == Python's return-False + re-enter */
        }

        cycle++;
        c->cycle = cycle;

        /* policy tick (on_cycle) */
        if (c->policy_kind == K_STALL) {
            for (i64 ti = 0; ti < c->n_threads; ti++)
                if (c->t[ti].gated) c->s_stalled++;
        } else if (c->policy_kind == K_CDPRF) {
            cdprf_on_cycle(c, cycle);
        }

        /* ================= commit ================= */
        {
            i64 committed = 0;
            i64 rr = c->commit_rr;
            int progress = 1;
            while (committed < c->commit_width && progress) {
                progress = 0;
                for (i64 off = 0; off < c->n_threads; off++) {
                    if (committed >= c->commit_width) break;
                    i64 ti = (rr + off) % c->n_threads;
                    tctx *t = &c->t[ti];
                    if (!t->rob.n) continue;
                    i64 head = ring_get(&t->rob, 0);
                    if (!c->p_done[head]) continue;
                    ring_popleft(&t->rob);
                    i64 age = c->p_age[head];
                    while (t->infl.n &&
                           c->p_age[ring_get(&t->infl, 0)] <= age) {
                        i64 csl = ring_popleft(&t->infl);
                        if (csl != head) {
                            if (c->p_done[csl])
                                c->free_slots[c->free_n++] = csl;
                            else
                                c->p_orph[csl] = 1;
                        }
                    }
                    i64 dest = c->p_dest[head];
                    if (dest != -1) {
                        i64 k = c->p_destk[head];
                        i64 pp = c->p_pp[head];
                        if (pp >= 0) {
                            free_phys(c, ti, c->p_ppc[head], k, pp);
                            if (c->err) return 4;
                        }
                        i64 pr = c->p_pr[head];
                        if (pr != -1) {
                            free_phys(c, ti, 1 - c->p_ppc[head], k, pr);
                            if (c->err) return 4;
                        }
                    }
                    i64 opc = c->p_op[head];
                    if ((opc == c->OP_LOAD || opc == c->OP_STORE) &&
                        c->p_mob[head] >= 0) {
                        c->mob_occ--;
                        c->mob_pt[ti]--;
                        int ex_store = c->p_mob[head] == 2;
                        c->p_mob[head] = -1;
                        if (ex_store) mob_forget(c, ti, c->p_ml[head]);
                    }
                    t->committed++;
                    c->cpt[ti]++;
                    if (!t->infl.n && t->cursor >= t->n_records &&
                        !t->fq.n && !t->wrong_path)
                        c->finished_count++;
                    c->free_slots[c->free_n++] = head;
                    committed++;
                    progress = 1;
                }
            }
            c->commit_rr = (rr + 1) % c->n_threads;
            if (committed) {
                c->epoch += committed;
                c->last_commit = cycle;
                c->s_committed += committed;
            }
        }

        /* ================= writeback ================= */
        {
            i64 bi;
            if (imap_del(&c->ev_map, cycle, &bi)) {
                for (i64 i = 0; i < c->pool[bi].n; i++) {
                    i64 key = c->pool[bi].d[i];
                    i64 sl = key & SM;
                    if (c->p_sq[sl] || c->p_age[sl] != key >> SB) continue;
                    if (c->p_op[sl] == c->OP_COPY) {
                        ring_push(&c->icn_pending, key);
                        continue;
                    }
                    c->p_done[sl] = 1;
                    if (c->p_dest[sl] != -1) {
                        i64 cl = c->p_cl[sl];
                        i64 k = c->p_destk[sl];
                        i64 pd = c->p_pd[sl];
                        c->files[cl][k].ready[pd] = 1;
                        wake_waiters(c, cl, k, pd);
                    }
                    if (c->p_misp[sl] && !c->p_wp[sl]) {
                        resolve_misp(c, sl);
                        if (c->err) return 4;
                    }
                }
                pool_release(c, bi);
            }
            if (imap_del(&c->fill_map, cycle, &bi)) {
                c->epoch++;   /* fills can unblock admission */
                for (i64 i = 0; i < c->pool[bi].n; i++) {
                    tctx *t = &c->t[c->pool[bi].d[i]];
                    t->l2_pending--;
                    if (t->l2_pending == 0) {
                        t->first_l2_miss = -1;
                        /* on_l2_fill: Stall lifts its gate, Flush+ its
                         * flush (only the owning policy sets either) */
                        t->gated = 0;
                        t->flushed = 0;
                    }
                }
                pool_release(c, bi);
            }
        }

        /* ================= copy delivery ================= */
        if (c->icn_pending.n || c->icn_when.n) {
            vec_reset(&c->arrived);
            if (c->icn_when.n) {
                vec_reset(&c->icn_when2);
                vec_reset(&c->icn_key2);
                for (i64 i = 0; i < c->icn_when.n; i++) {
                    i64 when = c->icn_when.d[i];
                    i64 key = c->icn_key.d[i];
                    if (when <= cycle) {
                        i64 sl = key & SM;
                        if (!c->p_sq[sl] && c->p_age[sl] == key >> SB)
                            vec_push(&c->arrived, sl);
                    } else {
                        vec_push(&c->icn_when2, when);
                        vec_push(&c->icn_key2, key);
                    }
                }
                vec tmp = c->icn_when;
                c->icn_when = c->icn_when2;
                c->icn_when2 = tmp;
                tmp = c->icn_key;
                c->icn_key = c->icn_key2;
                c->icn_key2 = tmp;
            }
            i64 launched = 0;
            while (c->icn_pending.n && launched < c->icn_links) {
                i64 key = ring_popleft(&c->icn_pending);
                i64 sl = key & SM;
                if (c->p_sq[sl] || c->p_age[sl] != key >> SB) continue;
                vec_push(&c->icn_when, cycle + c->icn_lat);
                vec_push(&c->icn_key, key);
                c->icn_transfers++;
                launched++;
            }
            c->icn_qwait += c->icn_pending.n;
            if (c->arrived.n) {
                for (i64 i = 0; i < c->arrived.n; i++) {
                    i64 sl = c->arrived.d[i];
                    c->p_done[sl] = 1;
                    i64 tcl_ = c->p_pref[sl];
                    i64 k = c->p_destk[sl];
                    i64 pd = c->p_pd[sl];
                    c->files[tcl_][k].ready[pd] = 1;
                    wake_waiters(c, tcl_, k, pd);
                    c->s_copies_arrived++;
                    if (c->p_orph[sl]) c->free_slots[c->free_n++] = sl;
                }
            }
        }

        /* ================= issue ================= */
        /* select first, execute afterwards (the reference's order): an
         * on_l2_miss flush (Flush+) may squash uops already selected */
        i64 bits[2];
        for (int ci = 0; ci < 2; ci++) {
            int b0 = 0, b1 = 0, b2 = 0;
            vec *heap = &c->heap[ci];
            vec *def = &c->deferred[ci];
            vec *pass = &c->passed[ci];
            vec *iss = &c->issued[ci];
            vec_reset(pass);
            vec_reset(iss);
            i64 di = 0, dn = def->n;
            if (heap->n || dn) {
                i64 scanned = 0;
                i64 max_scan = c->max_scan[ci];
                while (scanned < max_scan) {
                    i64 key, sl;
                    if (di < dn) {
                        i64 dkey = def->d[di];
                        i64 dsl = dkey & SM;
                        if (c->p_sq[dsl] || c->p_iss[dsl] ||
                            c->p_age[dsl] != dkey >> SB) {
                            di++;
                            continue;
                        }
                        if (heap->n && heap->d[0] < dkey) {
                            key = heap_pop(heap);
                            sl = key & SM;
                            if (c->p_sq[sl] || c->p_iss[sl] ||
                                c->p_age[sl] != key >> SB)
                                continue;
                        } else {
                            di++;
                            key = dkey;
                            sl = dsl;
                        }
                    } else if (heap->n) {
                        key = heap_pop(heap);
                        sl = key & SM;
                        if (c->p_sq[sl] || c->p_iss[sl] ||
                            c->p_age[sl] != key >> SB)
                            continue;
                    } else {
                        break;
                    }
                    scanned++;
                    i64 pcls = c->p_pcls[sl];
                    if (pcls == 2) {
                        if (b2) { vec_push(pass, key); continue; }
                        b2 = 1;
                    } else if (!b0) {
                        b0 = 1;
                    } else if (!b1) {
                        b1 = 1;
                    } else if (pcls == 0 && !b2) {
                        b2 = 1;
                    } else {
                        vec_push(pass, key);
                        continue;
                    }
                    vec_push(iss, key);   /* port claimed */
                }
                if (di || pass->n) {
                    vec *d2 = &c->defer2[ci];
                    vec_reset(d2);
                    for (i64 i = 0; i < pass->n; i++)
                        vec_push(d2, pass->d[i]);
                    for (i64 i = di; i < dn; i++) vec_push(d2, def->d[i]);
                    vec tmp = *def;
                    *def = *d2;
                    *d2 = tmp;
                }
            }
            i64 n_issued = 0;
            for (i64 i = 0; i < iss->n; i++) {
                i64 key = iss->d[i];
                i64 sl = key & SM;
                if (c->p_sq[sl]) continue;  /* flushed this cycle */
                c->p_iss[sl] = 1;
                i64 tid = c->p_tid[sl];
                c->iq_pt[ci][tid]--;
                c->t[tid].icount--;
                n_issued++;
                start_exec(c, sl, key, cycle);
                if (c->err) return 4;
            }
            if (n_issued) {
                c->iq_occ[ci] -= n_issued;
                c->epoch += n_issued;
                c->s_issued += n_issued;
                c->s_issue_cycles++;
            }
            bits[ci] = (b0 ? 1 : 0) | (b1 ? 2 : 0) | (b2 ? 4 : 0);
        }

        /* workload-imbalance probe (Figure 5), against final port state */
        {
            int probed = 0;
            for (int ci = 0; ci < 2; ci++) {
                vec *pass = &c->passed[ci];
                if (!pass->n) continue;
                i64 ob = bits[1 - ci];
                i64 seen = 0;
                for (i64 i = 0; i < pass->n; i++) {
                    i64 sl = pass->d[i] & SM;
                    if (c->p_sq[sl]) continue;
                    i64 pcls = c->p_pcls[sl];
                    i64 bit = 1LL << pcls;
                    if (seen & bit) continue;
                    seen |= bit;
                    int has_free;
                    if (pcls == 2) has_free = !(ob & 4);
                    else if (!(ob & 1) || !(ob & 2)) has_free = 1;
                    else has_free = pcls == 0 && !(ob & 4);
                    c->imb[pcls][has_free ? 1 : 0]++;
                    probed = 1;
                }
            }
            if (probed) c->s_imb_cycles++;
        }
"""
# --------------------------------------------------------------------- #
# C source, part 5: rename + fetch + end of cycle (continues cloop_run) #
# --------------------------------------------------------------------- #

_C_RUN2 = r"""
        /* ================= rename ================= */
        {
            i64 excluded = 0;
            i64 sel_left = c->n_threads;
            i64 epoch = c->epoch;
            for (;;) {
                /* selection (inlined IcountPolicy.rename_select) */
                i64 best = -1, best_ic = 0;
                i64 prr = c->policy_rr;
                for (i64 off = 0; off < c->n_threads; off++) {
                    i64 ti = (prr + off) % c->n_threads;
                    if (excluded & (1LL << ti)) continue;
                    tctx *tt = &c->t[ti];
                    if (tt->fq.n && !tt->flushed && !tt->gated &&
                        tt->rbu <= cycle) {
                        if (best < 0 || tt->icount < best_ic) {
                            best = ti;
                            best_ic = tt->icount;
                        }
                    }
                }
                if (best >= 0) c->policy_rr = (best + 1) % c->n_threads;
                if (best < 0) break;
                i64 tid = best;
                tctx *t = &c->t[tid];
                i64 renamed_n = 0;
                while (renamed_n < c->rename_width && t->fq.n) {
                    i64 entry = ring_get(&t->fq, 0);
                    i64 sl, genm;
                    if (entry & 1) {
                        sl = entry >> 1;
                        genm = c->p_gen[sl];
                    } else {
                        sl = -1;
                        genm = -1;
                    }
                    if (c->memo_on && t->memo_entry == entry &&
                        t->memo_gen == genm && t->memo_epoch == epoch) {
                        /* inlined _replay_rename_stall */
                        i64 primary = t->memo_cause;
                        c->rsc[primary]++;
                        if (primary == CAUSE_IQ) {
                            c->s_iq_stalls++;
                            c->s_iq_block_stalls++;
                        } else if (primary == CAUSE_RF_INT ||
                                   primary == CAUSE_RF_FP) {
                            c->rse[primary - CAUSE_RF_INT]++;
                            if (c->policy_kind == K_CDPRF)   /* on_reg_stall */
                                t->starved_now[primary - CAUSE_RF_INT] = 1;
                        }
                        break;
                    }
                    if (!c->rob_unbounded && t->rob.n >= c->rob_cap) {
                        c->rsc[CAUSE_ROB]++;
                        if (c->memo_on) {
                            t->memo_entry = entry;
                            t->memo_gen = genm;
                            t->memo_epoch = epoch;
                            t->memo_cause = CAUSE_ROB;
                        }
                        break;
                    }
                    i64 opc, s1, s2, dest, cur_r = -1;
                    if (sl >= 0) {
                        opc = c->p_op[sl];
                        s1 = c->p_s1[sl];
                        s2 = c->p_s2[sl];
                        dest = c->p_dest[sl];
                    } else {
                        cur_r = entry >> 1;
                        opc = t->co[cur_r];
                        s1 = t->cs1[cur_r];
                        s2 = t->cs2[cur_r];
                        dest = t->cd[cur_r];
                    }
                    if ((opc == c->OP_LOAD || opc == c->OP_STORE) &&
                        c->mob_occ >= c->mob_cap) {
                        c->rsc[CAUSE_MOB]++;
                        if (c->memo_on) {
                            t->memo_entry = entry;
                            t->memo_gen = genm;
                            t->memo_epoch = epoch;
                            t->memo_cause = CAUSE_MOB;
                        }
                        break;
                    }

                    /* single-pass source resolution */
                    i64 ph1 = 0, scl1 = 0, rep1 = 0;
                    i64 ph2 = 0, scl2 = 0, rep2 = 0;
                    int both1 = 0, both2 = 0;
                    if (s1 >= 0) {
                        ph1 = t->atph[s1];
                        scl1 = t->atcl[s1];
                        rep1 = t->atrp[s1];
                        both1 = ph1 == READY_EVERYWHERE || rep1 != -1;
                        if (s2 >= 0) {
                            ph2 = t->atph[s2];
                            scl2 = t->atcl[s2];
                            rep2 = t->atrp[s2];
                            both2 = ph2 == READY_EVERYWHERE || rep2 != -1;
                        }
                    }

                    /* steering (inlined Steering.preferred_cluster) */
                    i64 preferred;
                    if (c->forced_mode) {
                        preferred = tid % 2;
                    } else {
                        i64 rn_c0 = 0, rn_c1 = 0;
                        if (s1 >= 0) {
                            if (both1) { rn_c0++; rn_c1++; }
                            else if (scl1 == 0) rn_c0++;
                            else rn_c1++;
                            if (s2 >= 0) {
                                if (both2) { rn_c0++; rn_c1++; }
                                else if (scl2 == 0) rn_c0++;
                                else rn_c1++;
                            }
                        }
                        i64 occ0 = c->iq_occ[0], occ1 = c->iq_occ[1];
                        if (rn_c0 != rn_c1) preferred = rn_c0 > rn_c1 ? 0 : 1;
                        else preferred = occ0 <= occ1 ? 0 : 1;
                        if (preferred == 0) {
                            if (occ0 - occ1 > c->imb_threshold) preferred = 1;
                        } else if (occ1 - occ0 > c->imb_threshold) {
                            preferred = 0;
                        }
                    }

                    /* admission: preferred first, then (unless steering
                     * forces one cluster) the other */
                    i64 first_cause = admission_try(c, preferred, tid, s1,
                                                    s2, both1, scl1, both2,
                                                    scl2, dest);
                    i64 chosen;
                    if (first_cause < 0) {
                        chosen = preferred;
                    } else if (c->forced_mode) {
                        chosen = -1;
                    } else {
                        i64 cause2 = admission_try(c, 1 - preferred, tid,
                                                   s1, s2, both1, scl1,
                                                   both2, scl2, dest);
                        chosen = cause2 < 0 ? 1 - preferred : -1;
                    }

                    /* Figure 4: preferred cluster denied on IQ grounds */
                    if (first_cause == CAUSE_IQ) c->s_iq_stalls++;

                    if (chosen == -1) {
                        i64 primary = first_cause;
                        c->rsc[primary]++;
                        if (primary == CAUSE_IQ) c->s_iq_block_stalls++;
                        else if (primary == CAUSE_RF_INT ||
                                 primary == CAUSE_RF_FP) {
                            c->rse[primary - CAUSE_RF_INT]++;
                            if (c->policy_kind == K_CDPRF)   /* on_reg_stall */
                                t->starved_now[primary - CAUSE_RF_INT] = 1;
                        }
                        if (c->memo_on) {
                            t->memo_entry = entry;
                            t->memo_gen = genm;
                            t->memo_epoch = epoch;
                            t->memo_cause = primary;
                        }
                        break;
                    }

                    /* inlined _dispatch_uop (slots) */
                    if (sl < 0) {
                        sl = c->free_slots[--c->free_n];
                        c->p_op[sl] = opc;
                        c->p_dest[sl] = dest;
                        c->p_s1[sl] = s1;
                        c->p_s2[sl] = s2;
                        c->p_seq[sl] = cur_r;
                        c->p_ml[sl] = t->cml[cur_r];
                        c->p_lat[sl] = t->clat[cur_r];
                        c->p_tid[sl] = tid;
                        c->p_pcls[sl] = (u8)t->cpcls[cur_r];
                        c->p_destk[sl] = (u8)t->cdk[cur_r];
                        c->p_wp[sl] = 0;
                        c->p_gen[sl]++;
                        c->p_iss[sl] = 0;
                        c->p_sq[sl] = 0;
                        c->p_done[sl] = 0;
                        c->p_misp[sl] = 0;
                        c->p_orph[sl] = 0;
                        c->p_l2m[sl] = 0;
                    }
                    i64 wait = 0, w0 = -1, w1 = -1;
                    if (s1 >= 0) {
                        i64 phys1 =
                            (ph1 == READY_EVERYWHERE || scl1 == chosen)
                                ? ph1
                                : rep1;
                        if (phys1 == -1) {
                            phys1 = make_copy(c, tid, sl, s1, chosen);
                            if (c->err) return 4;
                        }
                        if (phys1 != READY_EVERYWHERE) {
                            i64 k = s1 < c->num_int ? 0 : 1;
                            if (!c->files[chosen][k].ready[phys1]) {
                                add_waiter(c, chosen, k, phys1, sl);
                                w0 = (chosen << 30) | (k << 29) | phys1;
                                wait = 1;
                            }
                        }
                        if (s2 >= 0) {
                            i64 phys2;
                            if (s2 != s1) {
                                phys2 = (ph2 == READY_EVERYWHERE ||
                                         scl2 == chosen)
                                            ? ph2
                                            : rep2;
                                if (phys2 == -1) {
                                    phys2 =
                                        make_copy(c, tid, sl, s2, chosen);
                                    if (c->err) return 4;
                                }
                            } else {
                                phys2 = phys1;
                            }
                            if (phys2 != READY_EVERYWHERE) {
                                i64 k = s2 < c->num_int ? 0 : 1;
                                if (!c->files[chosen][k].ready[phys2]) {
                                    add_waiter(c, chosen, k, phys2, sl);
                                    i64 pk = (chosen << 30) | (k << 29) |
                                             phys2;
                                    if (wait) w1 = pk;
                                    else w0 = pk;
                                    wait++;
                                }
                            }
                        }
                    }
                    c->p_wc[sl] = wait;
                    c->p_w0[sl] = w0;
                    c->p_w1[sl] = w1;
                    c->p_cl[sl] = chosen;

                    if (dest >= 0) {
                        i64 k = c->p_destk[sl];
                        i64 phys = rf_alloc(c, tid, chosen, k);
                        if (c->err) return 4;
                        c->p_pd[sl] = phys;
                        c->p_pp[sl] = t->atph[dest];
                        c->p_ppc[sl] = t->atcl[dest];
                        c->p_pr[sl] = t->atrp[dest];
                        t->atcl[dest] = chosen;
                        t->atph[dest] = phys;
                        t->atrp[dest] = -1;
                    }

                    i64 age = c->age++;
                    c->p_age[sl] = age;
                    ring_push(&t->rob, sl);
                    if (t->rob.n > t->rob_peak) t->rob_peak = t->rob.n;
                    if (opc == c->OP_LOAD || opc == c->OP_STORE) {
                        i64 occ = ++c->mob_occ;
                        c->mob_pt[tid]++;
                        c->p_mob[sl] = 1;
                        if (occ > c->mob_peak) c->mob_peak = occ;
                    }
                    {
                        i64 occ = ++c->iq_occ[chosen];
                        c->iq_pt[chosen][tid]++;
                        if (occ > c->iq_peak[chosen])
                            c->iq_peak[chosen] = occ;
                    }
                    if (wait == 0)
                        heap_push(&c->heap[chosen], (age << SB) | sl);
                    ring_push(&t->infl, sl);
                    t->icount++;
                    epoch++;   /* ROB/MOB/IQ/registers all moved */
                    c->s_renamed++;
                    if (c->p_wp[sl]) c->s_wpr++;
                    ring_popleft(&t->fq);
                    renamed_n++;
                }
                if (renamed_n) break;
                /* structurally blocked; give the slot away */
                sel_left--;
                if (sel_left == 0) break;
                excluded |= 1LL << tid;
            }
            c->epoch = epoch;
        }

        /* ================= fetch ================= */
        {
            i64 best = -1, best_len = -1;
            for (i64 ti = 0; ti < c->n_threads; ti++) {
                tctx *tt = &c->t[ti];
                if (tt->fbu <= cycle && !tt->flushed) {
                    i64 ql = tt->fq.n;
                    if (ql < c->fq_cap &&
                        (tt->wrong_path || tt->cursor < tt->n_records)) {
                        if (best < 0 || ql < best_len) {
                            best = ti;
                            best_len = ql;
                        }
                    }
                }
            }
            if (best >= 0) {
                tctx *t = &c->t[best];
                int wrong = (int)t->wrong_path;
                i64 first_pc;
                if (wrong)
                    first_pc =
                        t->cpc[(t->wp_cursor * 7919) % t->n_records] |
                        (1LL << 40);
                else
                    first_pc = t->cpc[t->cursor];
                i64 stall = tc_lookup(c, first_pc);
                if (stall > 0) {
                    t->fbu = cycle + stall;
                } else {
                    i64 fetched = 0;
                    if (wrong) {
                        if (c->model_wp) {
                            while (fetched < c->fetch_width &&
                                   t->fq.n < c->fq_cap) {
                                i64 i = (t->wp_cursor * 7919) %
                                        t->n_records;
                                t->wp_cursor++;
                                i64 sl = c->free_slots[--c->free_n];
                                c->p_op[sl] = t->co[i];
                                c->p_dest[sl] = t->cd[i];
                                c->p_s1[sl] = t->cs1[i];
                                c->p_s2[sl] = t->cs2[i];
                                c->p_seq[sl] = -1;
                                c->p_ml[sl] = t->cml[i];
                                c->p_lat[sl] = t->clat[i];
                                c->p_tid[sl] = best;
                                c->p_pcls[sl] = (u8)t->cpcls[i];
                                c->p_destk[sl] = (u8)t->cdk[i];
                                c->p_wp[sl] = 1;
                                c->p_age[sl] = -1;
                                c->p_gen[sl]++;
                                c->p_iss[sl] = 0;
                                c->p_sq[sl] = 0;
                                c->p_done[sl] = 0;
                                c->p_misp[sl] = 0;
                                c->p_orph[sl] = 0;
                                c->p_l2m[sl] = 0;
                                ring_push(&t->fq, (sl << 1) | 1);
                                fetched++;
                            }
                            c->s_wpf += fetched;
                        }
                    } else {
                        i64 cur = t->cursor;
                        i64 nrec = t->n_records;
                        while (fetched < c->fetch_width &&
                               t->fq.n < c->fq_cap) {
                            if (cur >= nrec) break;
                            if (t->cplain[cur]) {
                                /* whole plain run as packed indices */
                                i64 end = cur + c->fetch_width - fetched;
                                i64 lim = cur + c->fq_cap - t->fq.n;
                                if (lim < end) end = lim;
                                lim = t->cns[cur];
                                if (lim < end) end = lim;
                                if (nrec < end) end = nrec;
                                for (i64 j = cur; j < end; j++)
                                    ring_push(&t->fq, j << 1);
                                fetched += end - cur;
                                cur = end;
                                continue;
                            }
                            /* slow path: branch / indirect / complex */
                            i64 sl = c->free_slots[--c->free_n];
                            i64 opcl = t->co[cur];
                            c->p_op[sl] = opcl;
                            c->p_dest[sl] = t->cd[cur];
                            c->p_s1[sl] = t->cs1[cur];
                            c->p_s2[sl] = t->cs2[cur];
                            c->p_seq[sl] = cur;
                            c->p_ml[sl] = t->cml[cur];
                            c->p_lat[sl] = t->clat[cur];
                            c->p_tid[sl] = best;
                            c->p_pcls[sl] = (u8)t->cpcls[cur];
                            c->p_destk[sl] = (u8)t->cdk[cur];
                            c->p_wp[sl] = 0;
                            c->p_age[sl] = -1;
                            c->p_gen[sl]++;
                            c->p_iss[sl] = 0;
                            c->p_sq[sl] = 0;
                            c->p_done[sl] = 0;
                            c->p_misp[sl] = 0;
                            c->p_orph[sl] = 0;
                            c->p_l2m[sl] = 0;
                            i64 ind = t->cind[cur];
                            i64 comp = t->ccomp[cur];
                            i64 pc = t->cpc[cur];
                            i64 tk = t->ctk[cur];
                            i64 tg = t->ctg[cur];
                            cur++;
                            ring_push(&t->fq, (sl << 1) | 1);
                            fetched++;
                            if (opcl == c->OP_BRANCH) {
                                if (ind) {
                                    if (!ip_update(c, best, pc, tg)) {
                                        c->p_misp[sl] = 1;
                                        t->wrong_path = 1;
                                        break;
                                    }
                                } else {
                                    if (bp_update(c, best, pc,
                                                  (int)tk) != (int)tk) {
                                        c->p_misp[sl] = 1;
                                        t->wrong_path = 1;
                                        break;
                                    }
                                }
                            } else if (comp) {
                                t->fbu = cycle + c->mrom_lat;
                                break;
                            }
                        }
                        t->cursor = cur;
                        t->frp += fetched;
                    }
                    c->s_fetched += fetched;
                }
            }
        }

        /* ================= end of cycle ================= */
        c->s_cycles++;
        if (cycle - c->last_commit > c->watchdog) {
            c->cycle = cycle;
            return 2;
        }

        if (warmup && c->finished_count > 0) { rc = 1; break; }
        if (single) break;
    }
    c->cycle = cycle;
    return rc;
}
"""
# --------------------------------------------------------------------- #
# C source, part 6: construction, seeding, export, reset                #
# --------------------------------------------------------------------- #

_C_API = r"""
void *cloop_new(const i64 *cfg, i64 cfg_len) {
    (void)cfg_len;
    cloop *c = (cloop *)calloc(1, sizeof(cloop));
    i64 q = 0;
    c->n_threads = cfg[q++];
    c->fetch_width = cfg[q++];
    c->rename_width = cfg[q++];
    c->commit_width = cfg[q++];
    c->fq_cap = cfg[q++];
    c->misp_pipe = cfg[q++];
    c->mrom_lat = cfg[q++];
    c->model_wp = cfg[q++];
    c->iq_cap[0] = cfg[q++];
    c->iq_cap[1] = cfg[q++];
    c->max_scan[0] = cfg[q++];
    c->max_scan[1] = cfg[q++];
    c->rob_cap = cfg[q++];
    c->rob_unbounded = cfg[q++];
    c->mob_cap = cfg[q++];
    c->icn_links = cfg[q++];
    c->icn_lat = cfg[q++];
    c->num_int = cfg[q++];
    c->num_arch = cfg[q++];
    c->imb_threshold = cfg[q++];
    c->policy_kind = cfg[q++];
    c->dispatch_trivial = cfg[q++];
    c->memo_on = cfg[q++];
    c->forced_mode = cfg[q++];
    i64 pool_cap = cfg[q++];
    c->slot_bits = cfg[q++];
    c->max_slots = 1LL << c->slot_bits;
    c->watchdog = cfg[q++];
    for (int i = 0; i < 8; i++) c->latency[i] = cfg[q++];
    c->copy_pcls = cfg[q++];
    c->OP_LOAD = cfg[q++];
    c->OP_STORE = cfg[q++];
    c->OP_BRANCH = cfg[q++];
    c->OP_COPY = cfg[q++];
    i64 l1_nsets = cfg[q++], l1_assoc = cfg[q++];
    c->l1_lat = cfg[q++];
    i64 l2_nsets = cfg[q++], l2_assoc = cfg[q++];
    c->l2_lat = cfg[q++];
    c->mem_lat = cfg[q++];
    i64 d_nsets = cfg[q++], d_assoc = cfg[q++];
    c->d_lpp = cfg[q++];
    c->d_miss = cfg[q++];
    c->nbuses = cfg[q++];
    i64 i_nsets = cfg[q++], i_assoc = cfg[q++];
    c->i_lpp = cfg[q++];
    c->i_miss = cfg[q++];
    i64 t_nsets = cfg[q++], t_assoc = cfg[q++];
    c->tc_line_uops = cfg[q++];
    c->tc_fill_lat = cfg[q++];
    i64 bp_entries = cfg[q++];
    c->bp_hist_bits = cfg[q++];
    i64 ip_entries = cfg[q++];
    i64 rf_caps[4];
    for (int i = 0; i < 4; i++) rf_caps[i] = cfg[q++];
    i64 rf_unbounded = cfg[q++];
    c->policy_rr = cfg[q++];
    c->interval = cfg[q++];
    c->rf_total[0] = cfg[q++];
    c->rf_total[1] = cfg[q++];

    lru_init(&c->l1, l1_nsets, l1_assoc);
    lru_init(&c->l2, l2_nsets, l2_assoc);
    lru_init(&c->dtlb, d_nsets, d_assoc);
    lru_init(&c->itlb, i_nsets, i_assoc);
    lru_init(&c->tcl, t_nsets, t_assoc);
    c->bus = (i64 *)calloc((size_t)c->nbuses, sizeof(i64));
    imap_init(&c->infl_fills, 128);

    c->bp_table = (u8 *)malloc((size_t)bp_entries);
    memset(c->bp_table, 2, (size_t)bp_entries);
    c->bp_mask = bp_entries - 1;
    c->bp_hist = (i64 *)calloc((size_t)c->n_threads, sizeof(i64));
    c->ip_targets = (i64 *)malloc((size_t)ip_entries * sizeof(i64));
    for (i64 i = 0; i < ip_entries; i++) c->ip_targets[i] = -1;
    c->ip_mask = ip_entries - 1;

    ring_init(&c->icn_pending);

    c->mob_pt = (i64 *)calloc((size_t)c->n_threads, sizeof(i64));
    c->mob_lines = (imap *)calloc((size_t)c->n_threads, sizeof(imap));
    for (i64 i = 0; i < c->n_threads; i++)
        imap_init(&c->mob_lines[i], 32);

    c->iq_pt[0] = (i64 *)calloc((size_t)c->n_threads, sizeof(i64));
    c->iq_pt[1] = (i64 *)calloc((size_t)c->n_threads, sizeof(i64));

    for (int cl = 0; cl < 2; cl++)
        for (int k = 0; k < 2; k++)
            rf_init(&c->files[cl][k], rf_caps[cl * 2 + k], rf_unbounded);

    imap_init(&c->ev_map, 64);
    imap_init(&c->fill_map, 64);

    c->cap = pool_cap;
    c->free_slots = (i64 *)malloc((size_t)pool_cap * sizeof(i64));
    for (i64 i = 0; i < pool_cap; i++)
        c->free_slots[i] = pool_cap - 1 - i;   /* pop() -> 0 first */
    c->free_n = pool_cap;
    c->p_op = (i64 *)calloc((size_t)pool_cap, sizeof(i64));
    c->p_dest = (i64 *)calloc((size_t)pool_cap, sizeof(i64));
    c->p_s1 = (i64 *)calloc((size_t)pool_cap, sizeof(i64));
    c->p_s2 = (i64 *)calloc((size_t)pool_cap, sizeof(i64));
    c->p_seq = (i64 *)calloc((size_t)pool_cap, sizeof(i64));
    c->p_ml = (i64 *)calloc((size_t)pool_cap, sizeof(i64));
    c->p_lat = (i64 *)calloc((size_t)pool_cap, sizeof(i64));
    c->p_tid = (i64 *)calloc((size_t)pool_cap, sizeof(i64));
    c->p_age = (i64 *)malloc((size_t)pool_cap * sizeof(i64));
    c->p_gen = (i64 *)calloc((size_t)pool_cap, sizeof(i64));
    c->p_cl = (i64 *)calloc((size_t)pool_cap, sizeof(i64));
    c->p_pref = (i64 *)calloc((size_t)pool_cap, sizeof(i64));
    c->p_pd = (i64 *)calloc((size_t)pool_cap, sizeof(i64));
    c->p_pp = (i64 *)calloc((size_t)pool_cap, sizeof(i64));
    c->p_ppc = (i64 *)calloc((size_t)pool_cap, sizeof(i64));
    c->p_pr = (i64 *)calloc((size_t)pool_cap, sizeof(i64));
    c->p_wc = (i64 *)calloc((size_t)pool_cap, sizeof(i64));
    c->p_mob = (i64 *)malloc((size_t)pool_cap * sizeof(i64));
    c->p_w0 = (i64 *)malloc((size_t)pool_cap * sizeof(i64));
    c->p_w1 = (i64 *)malloc((size_t)pool_cap * sizeof(i64));
    for (i64 i = 0; i < pool_cap; i++) {
        c->p_age[i] = -1;
        c->p_mob[i] = -1;
        c->p_w0[i] = -1;
        c->p_w1[i] = -1;
    }
    c->p_destk = (u8 *)calloc((size_t)pool_cap, 1);
    c->p_pcls = (u8 *)calloc((size_t)pool_cap, 1);
    c->p_wp = (u8 *)calloc((size_t)pool_cap, 1);
    c->p_iss = (u8 *)calloc((size_t)pool_cap, 1);
    c->p_sq = (u8 *)calloc((size_t)pool_cap, 1);
    c->p_done = (u8 *)calloc((size_t)pool_cap, 1);
    c->p_misp = (u8 *)calloc((size_t)pool_cap, 1);
    c->p_orph = (u8 *)calloc((size_t)pool_cap, 1);
    c->p_l2m = (u8 *)calloc((size_t)pool_cap, 1);

    c->t = (tctx *)calloc((size_t)c->n_threads, sizeof(tctx));
    for (i64 i = 0; i < c->n_threads; i++) {
        tctx *t = &c->t[i];
        ring_init(&t->fq);
        ring_init(&t->infl);
        ring_init(&t->rob);
        t->wp_cursor = 1;
        t->first_l2_miss = -1;
        t->memo_entry = -1;
        t->memo_gen = -1;
        t->memo_epoch = -1;
        t->atcl = (i64 *)malloc((size_t)c->num_arch * sizeof(i64));
        t->atph = (i64 *)malloc((size_t)c->num_arch * sizeof(i64));
        t->atrp = (i64 *)malloc((size_t)c->num_arch * sizeof(i64));
        for (i64 a = 0; a < c->num_arch; a++) {
            t->atcl[a] = -1;
            t->atph[a] = READY_EVERYWHERE;
            t->atrp[a] = -1;
        }
    }

    c->cpt = (i64 *)calloc((size_t)c->n_threads, sizeof(i64));
    return c;
}

static i64 *copy_col(const i64 *src, i64 n) {
    i64 *d = (i64 *)malloc((size_t)(n > 0 ? n : 1) * sizeof(i64));
    memcpy(d, src, (size_t)n * sizeof(i64));
    return d;
}

long long cloop_set_trace(void *cp, i64 tid, i64 n, const i64 *co,
                          const i64 *cd, const i64 *cs1, const i64 *cs2,
                          const i64 *cpc, const i64 *ctk, const i64 *cml,
                          const i64 *cind, const i64 *ctg,
                          const i64 *ccomp, const i64 *cplain,
                          const i64 *cpcls, const i64 *cdk,
                          const i64 *clat, const i64 *cns) {
    cloop *c = (cloop *)cp;
    tctx *t = &c->t[tid];
    t->n_records = n;
    t->co = copy_col(co, n);
    t->cd = copy_col(cd, n);
    t->cs1 = copy_col(cs1, n);
    t->cs2 = copy_col(cs2, n);
    t->cpc = copy_col(cpc, n);
    t->ctk = copy_col(ctk, n);
    t->cml = copy_col(cml, n);
    t->cind = copy_col(cind, n);
    t->ctg = copy_col(ctg, n);
    t->ccomp = copy_col(ccomp, n);
    t->cplain = copy_col(cplain, n);
    t->cpcls = copy_col(cpcls, n);
    t->cdk = copy_col(cdk, n);
    t->clat = copy_col(clat, n);
    t->cns = copy_col(cns, n);
    return 0;
}

/* Mirror of Processor.prewarm_caches: each line, in order, through the
 * L2 alone, then the counters MemoryHierarchy.reset_stats zeroes. */
void cloop_prewarm(void *cp, const i64 *lines, i64 n) {
    cloop *c = (cloop *)cp;
    for (i64 i = 0; i < n; i++) lru_access(&c->l2, lines[i]);
    c->l1.hits = c->l1.misses = c->l1.evictions = 0;
    c->l2.hits = c->l2.misses = c->l2.evictions = 0;
    c->dtlb.hits = c->dtlb.misses = c->dtlb.evictions = 0;
    c->bus_wait = c->coalesced = 0;
}

/* per-thread policy state, POLICY_STATE values per thread in this order
 * (cloop_export appends the same values to each thread's block) */
#define POLICY_STATE 14
static i64 *policy_state(tctx *t, i64 *out) {
    *out++ = t->gated;
    *out++ = t->flushed;
    for (int k = 0; k < 2; k++) {
        *out++ = t->usage[k][0];
        *out++ = t->usage[k][1];
    }
    for (int k = 0; k < 2; k++) {
        *out++ = t->thr[k];
        *out++ = t->rfoc[k];
        *out++ = t->starv[k];
        *out++ = t->starved_now[k];
    }
    return out;
}

void cloop_seed_policy(void *cp, const i64 *v) {
    cloop *c = (cloop *)cp;
    for (i64 ti = 0; ti < c->n_threads; ti++) {
        tctx *t = &c->t[ti];
        t->gated = *v++;
        t->flushed = *v++;
        for (int k = 0; k < 2; k++) {
            t->usage[k][0] = *v++;
            t->usage[k][1] = *v++;
        }
        for (int k = 0; k < 2; k++) {
            t->thr[k] = *v++;
            t->rfoc[k] = *v++;
            t->starv[k] = *v++;
            t->starved_now[k] = *v++;
        }
    }
}

long long cloop_export(void *cp, i64 *out, i64 cap) {
    cloop *c = (cloop *)cp;
    i64 need = 85 + (17 + POLICY_STATE) * c->n_threads;
    if (cap < need) return -1;
    i64 q = 0;
    out[q++] = c->cycle;
    out[q++] = c->age;
    out[q++] = c->commit_rr;
    out[q++] = c->last_commit;
    out[q++] = c->epoch;
    out[q++] = c->finished_count;
    out[q++] = c->policy_rr;
    out[q++] = c->s_cycles;
    out[q++] = c->s_committed;
    out[q++] = c->s_renamed;
    out[q++] = c->s_fetched;
    out[q++] = c->s_issued;
    out[q++] = c->s_copies_renamed;
    out[q++] = c->s_copies_arrived;
    out[q++] = c->s_iq_stalls;
    out[q++] = c->s_iq_block_stalls;
    for (int i = 0; i < 5; i++) out[q++] = c->rsc[i];
    for (int i = 0; i < 2; i++) out[q++] = c->rse[i];
    out[q++] = c->s_mispredicts;
    out[q++] = c->s_squashed;
    out[q++] = c->s_wpf;
    out[q++] = c->s_wpr;
    for (int i = 0; i < 3; i++)
        for (int j = 0; j < 2; j++) out[q++] = c->imb[i][j];
    out[q++] = c->s_imb_cycles;
    out[q++] = c->s_issue_cycles;
    out[q++] = c->s_flushes;
    out[q++] = c->s_stalled;
    out[q++] = c->l1.hits;
    out[q++] = c->l1.misses;
    out[q++] = c->l1.evictions;
    out[q++] = c->l2.hits;
    out[q++] = c->l2.misses;
    out[q++] = c->l2.evictions;
    out[q++] = c->dtlb.hits;
    out[q++] = c->dtlb.misses;
    out[q++] = c->dtlb.evictions;
    out[q++] = c->itlb.hits;
    out[q++] = c->itlb.misses;
    out[q++] = c->itlb.evictions;
    out[q++] = c->tcl.hits;
    out[q++] = c->tcl.misses;
    out[q++] = c->tcl.evictions;
    out[q++] = c->tc_hits;
    out[q++] = c->tc_misses;
    out[q++] = c->bus_wait;
    out[q++] = c->coalesced;
    out[q++] = c->bp_lookups;
    out[q++] = c->bp_correct;
    out[q++] = c->ip_lookups;
    out[q++] = c->ip_correct;
    out[q++] = c->icn_transfers;
    out[q++] = c->icn_qwait;
    out[q++] = c->mob_occ;
    out[q++] = c->mob_peak;
    out[q++] = c->mob_forwards;
    out[q++] = c->iq_occ[0];
    out[q++] = c->iq_peak[0];
    out[q++] = c->iq_occ[1];
    out[q++] = c->iq_peak[1];
    for (int cl = 0; cl < 2; cl++)
        for (int k = 0; k < 2; k++) {
            rf *f = &c->files[cl][k];
            out[q++] = f->in_use;
            out[q++] = f->peak;
            out[q++] = f->alloc_count;
            out[q++] = f->cap;
        }
    for (i64 ti = 0; ti < c->n_threads; ti++) {
        tctx *t = &c->t[ti];
        out[q++] = c->cpt[ti];
        out[q++] = t->committed;
        out[q++] = t->cursor;
        out[q++] = t->frp;
        out[q++] = t->icount;
        out[q++] = t->l2_pending;
        out[q++] = t->first_l2_miss;
        out[q++] = t->fbu;
        out[q++] = t->rbu;
        out[q++] = t->wrong_path;
        out[q++] = t->fq.n;
        out[q++] = t->infl.n;
        out[q++] = t->rob.n;
        out[q++] = t->rob_peak;
        out[q++] = c->iq_pt[0][ti];
        out[q++] = c->iq_pt[1][ti];
        out[q++] = c->mob_pt[ti];
        q = policy_state(t, out + q) - out;
    }
    return q;
}

/* Mirror of Processor.reset_measurement (+ component reset_stats):
 * zeroes counters, never peaks/alloc_count/in_use/contents/bus/fills/
 * predictor tables or histories. */
void cloop_reset_stats(void *cp) {
    cloop *c = (cloop *)cp;
    c->s_cycles = c->s_committed = c->s_renamed = c->s_fetched = 0;
    c->s_issued = c->s_copies_renamed = c->s_copies_arrived = 0;
    c->s_iq_stalls = c->s_iq_block_stalls = 0;
    for (int i = 0; i < 5; i++) c->rsc[i] = 0;
    for (int i = 0; i < 2; i++) c->rse[i] = 0;
    c->s_mispredicts = c->s_squashed = c->s_wpf = c->s_wpr = 0;
    for (int i = 0; i < 3; i++)
        for (int j = 0; j < 2; j++) c->imb[i][j] = 0;
    c->s_imb_cycles = c->s_issue_cycles = 0;
    c->s_flushes = c->s_stalled = 0;
    for (i64 i = 0; i < c->n_threads; i++) c->cpt[i] = 0;
    c->l1.hits = c->l1.misses = c->l1.evictions = 0;
    c->l2.hits = c->l2.misses = c->l2.evictions = 0;
    c->dtlb.hits = c->dtlb.misses = c->dtlb.evictions = 0;
    c->itlb.hits = c->itlb.misses = c->itlb.evictions = 0;
    c->tcl.hits = c->tcl.misses = c->tcl.evictions = 0;
    c->tc_hits = c->tc_misses = 0;
    c->bus_wait = c->coalesced = 0;
    c->bp_lookups = c->bp_correct = 0;
    c->ip_lookups = c->ip_correct = 0;
    c->icn_transfers = c->icn_qwait = 0;
    c->mob_forwards = 0;
}

long long cloop_err(void *cp, i64 which) {
    cloop *c = (cloop *)cp;
    return which == 0 ? c->err : c->erra;
}

void cloop_free(void *cp) {
    cloop *c = (cloop *)cp;
    if (!c) return;
    lru_destroy(&c->l1);
    lru_destroy(&c->l2);
    lru_destroy(&c->dtlb);
    lru_destroy(&c->itlb);
    lru_destroy(&c->tcl);
    free(c->bus);
    imap_destroy(&c->infl_fills);
    free(c->bp_table);
    free(c->bp_hist);
    free(c->ip_targets);
    ring_destroy(&c->icn_pending);
    vec_destroy(&c->icn_when);
    vec_destroy(&c->icn_key);
    vec_destroy(&c->icn_when2);
    vec_destroy(&c->icn_key2);
    vec_destroy(&c->arrived);
    free(c->mob_pt);
    for (i64 i = 0; i < c->n_threads; i++) imap_destroy(&c->mob_lines[i]);
    free(c->mob_lines);
    free(c->iq_pt[0]);
    free(c->iq_pt[1]);
    for (int cl = 0; cl < 2; cl++)
        for (int k = 0; k < 2; k++) rf_destroy(&c->files[cl][k]);
    for (i64 i = 0; i < c->pool_n; i++) vec_destroy(&c->pool[i]);
    free(c->pool);
    free(c->pool_free);
    imap_destroy(&c->ev_map);
    imap_destroy(&c->fill_map);
    free(c->free_slots);
    free(c->p_op); free(c->p_dest); free(c->p_s1); free(c->p_s2);
    free(c->p_seq); free(c->p_ml); free(c->p_lat); free(c->p_tid);
    free(c->p_age); free(c->p_gen); free(c->p_cl); free(c->p_pref);
    free(c->p_pd); free(c->p_pp); free(c->p_ppc); free(c->p_pr);
    free(c->p_wc); free(c->p_mob); free(c->p_w0); free(c->p_w1);
    free(c->p_destk); free(c->p_pcls); free(c->p_wp); free(c->p_iss);
    free(c->p_sq); free(c->p_done); free(c->p_misp); free(c->p_orph);
    free(c->p_l2m);
    for (int ci = 0; ci < 2; ci++) {
        vec_destroy(&c->heap[ci]);
        vec_destroy(&c->deferred[ci]);
        vec_destroy(&c->defer2[ci]);
        vec_destroy(&c->passed[ci]);
        vec_destroy(&c->issued[ci]);
    }
    for (i64 i = 0; i < c->n_threads; i++) {
        tctx *t = &c->t[i];
        ring_destroy(&t->fq);
        ring_destroy(&t->infl);
        ring_destroy(&t->rob);
        free(t->atcl); free(t->atph); free(t->atrp);
        free(t->co); free(t->cd); free(t->cs1); free(t->cs2);
        free(t->cpc); free(t->ctk); free(t->cml); free(t->cind);
        free(t->ctg); free(t->ccomp); free(t->cplain); free(t->cpcls);
        free(t->cdk); free(t->clat); free(t->cns);
    }
    free(c->t);
    free(c->cpt);
    free(c);
}
"""

_CLOOP_SOURCE = _C_INFRA + _C_CTX + _C_MACHINE + _C_RUN + _C_RUN2 + _C_API

#: rows of a thread's record block: the ``cloop_set_trace`` columns
_TRACE_ROWS = 15


def _trace_block(trace, mem_offset: int, latency) -> np.ndarray:
    """One hardware thread's static record columns as a ``(15, n)`` int64
    block, rows in ``cloop_set_trace`` argument order.

    Built in bulk from ``trace.records``: the thread's address-space
    offset is folded into ``mem_line`` and ``latency`` (the machine's
    per-class table) is applied per record.  The values are those the
    Python engines read one record at a time (``Trace.columns()``,
    :func:`~repro.core.soa.thread_mem_lines`, ``TraceSoA.plain``, the
    latency table).  Built per machine and dropped once the kernel has
    copied it: caching it on the trace would keep 15 int64 words per
    record resident.
    """
    rec = np.asarray(trace.records)  # a plain view of a memory-mapped trace
    opclass = rec["opclass"]
    plain, next_slow, dest_class, port_class = static_arrays(rec)
    block = np.empty((_TRACE_ROWS, len(rec)), dtype=np.int64)
    block[0] = opclass
    block[1] = rec["dest"]
    block[2] = rec["src1"]
    block[3] = rec["src2"]
    block[4] = rec["pc"]
    block[5] = rec["taken"] != 0
    block[6] = rec["mem_line"] + mem_offset
    block[7] = rec["indirect"] != 0
    block[8] = rec["target"]
    block[9] = rec["complex_op"] != 0
    block[10] = plain
    block[11] = port_class
    block[12] = dest_class
    block[13] = np.asarray(latency, dtype=np.int64)[opclass]
    block[14] = next_slow
    return block


class _CloopContext:
    """Owns one resident C machine and the marshal layer around it.

    Created by :class:`CloopProcessor` at construction, right after its
    lean Python machine is built, so the C side owns every piece of
    machine state from birth.  It is seeded with what ``cloop_new``
    cannot derive from the configuration: each thread's trace records
    and the policy's initial state.  Empty caches, untrained predictors
    and idle pipelines are the kernel's own initial state, and the ILP
    prewarm runs in C (:meth:`prewarm`).  ``export`` copies the
    observable counters back into the Python objects at each region
    boundary; unobservable internals (heaps, fetch queues, ROB contents,
    rename tables, cache contents) stay C-resident, which is exactly the
    region contract documented on :class:`CloopProcessor`.
    """

    @staticmethod
    def _load():
        """The kernel's ``(lib, ffi)``, built or loaded once per process.

        The build is content-hashed and cached on disk, but cdef+dlopen
        still cost ~ms per call, and a failed build would rerun the
        compiler on every machine.  So the outcome, a failure's reason
        included, is kept in :data:`repro.core.ckernel.build_result`,
        where :func:`~repro.core.ckernel.kernel_unavailable_reason`
        reports it.  Raises ``RuntimeError`` with that reason.
        """
        result = ckernel.build_result
        if result is None:
            try:
                result = load_shared_lib(_CLOOP_SOURCE, _CLOOP_CDEF, "repro_cloop")
            except RuntimeError as exc:
                result = str(exc)
            ckernel.build_result = result
        if isinstance(result, str):
            raise RuntimeError(result)
        return result

    def __init__(self, proc, lib, ffi) -> None:
        self._lib = lib
        self._ffi = ffi
        self._n_threads = proc._n_threads
        self._need = 85 + (17 + _POLICY_STATE) * proc._n_threads
        self._kind = _C_POLICY_KINDS[type(proc.policy)]
        self._out = ffi.new("long long[]", self._need)
        #: (fq_len, inflight_len, rob_len) per thread from the last
        #: export — feeds the deadlock report, mirroring the Python
        #: engines' ``repr(thread)`` dump
        self.last_queues: list[tuple[int, int, int]] = []

        mem = proc.mem
        tc = proc.tc
        policy = proc.policy
        cdprf = self._kind == _CDPRF
        cfg = [
            proc._n_threads,
            proc._fetch_width,
            proc._rename_width,
            proc._commit_width,
            proc._fetch_queue_entries,
            proc._mispredict_pipeline,
            proc._mrom_latency,
            int(proc.config.model_wrong_path),
            proc.clusters[0].iq.capacity,
            proc.clusters[1].iq.capacity,
            proc._max_scan[0],
            proc._max_scan[1],
            proc.threads[0].rob.capacity,
            int(proc.threads[0].rob.unbounded),
            proc.mob.capacity,
            proc.icn.num_links,
            proc.icn.latency,
            NUM_ARCH_INT,
            NUM_ARCH_REGS,
            proc.steering.imbalance_threshold,
            self._kind,
            int(proc._dispatch_trivial),
            int(proc._memo_on),
            int(proc._forced_cluster is not None),
            proc._pool_capacity(),
            SLOT_BITS,
            _WATCHDOG_CYCLES,
            *proc._latency,
            PORT_CLASS_TABLE[_COPY],
            _LOAD,
            _STORE,
            _BRANCH,
            _COPY,
            mem.l1.num_sets,
            mem.l1.assoc,
            mem.config.l1.hit_latency,
            mem.l2.num_sets,
            mem.l2.assoc,
            mem.config.l2.hit_latency,
            mem.config.memory_latency,
            mem.dtlb._store.num_sets,
            mem.dtlb._store.assoc,
            mem.dtlb._lines_per_page,
            mem.dtlb.miss_latency,
            len(mem._bus_free),
            tc._itlb._store.num_sets,
            tc._itlb._store.assoc,
            tc._itlb._lines_per_page,
            tc._itlb.miss_latency,
            tc._lines.num_sets,
            tc._lines.assoc,
            tc.line_uops,
            tc.fill_latency,
            proc.predictor.size,
            proc.predictor._hist_bits,
            proc.ipredictor.size,
            *(
                proc.clusters[cl].regs.files[k].capacity
                for cl in (0, 1)
                for k in (0, 1)
            ),
            int(proc.clusters[0].regs.files[0].unbounded),
            policy._rr,
            policy.interval if cdprf else 0,
            *(policy._totals if cdprf else (0, 0)),
        ]
        cfg_arr = ffi.new("long long[]", [int(v) for v in cfg])
        self.c = ffi.gc(lib.cloop_new(cfg_arr, len(cfg)), lib.cloop_free)

        # static trace columns (the kernel memcpy's them: no keepalive)
        for tid, t in enumerate(proc.threads):
            block = _trace_block(t.trace, t.mem_offset, proc._latency)
            shape = (_TRACE_ROWS, t.n_records)
            if (
                block.dtype != np.int64
                or block.shape != shape
                or not block.flags.c_contiguous
            ):
                raise ValueError(
                    f"thread {tid} record block must be a C-contiguous "
                    f"int64 array of shape {shape}, got {block.dtype} "
                    f"{block.shape}"
                )
            lib.cloop_set_trace(
                self.c,
                tid,
                t.n_records,
                *(ffi.from_buffer("long long[]", row) for row in block),
            )

        lib.cloop_seed_policy(
            self.c, ffi.new("long long[]", self._policy_state(proc))
        )

    def _policy_state(self, proc) -> list[int]:
        """Each thread's policy state in ``cloop_seed_policy`` order:
        gates, registers held per (class, cluster), then per class the
        CDPRF threshold, RFOC, Starvation and pending-starvation flag
        (zeros where the policy keeps no such state)."""
        policy = proc.policy
        vals = []
        for tid, t in enumerate(proc.threads):
            vals += (t.gated, t.flushed)
            for k in (0, 1):
                if self._kind in _REG_METERED:
                    vals += policy.reg_usage[tid][k]
                else:
                    vals += (0, 0)
            for k in (0, 1):
                if self._kind == _CDPRF:
                    vals += (
                        policy.threshold[tid][k],
                        policy.rfoc[tid][k],
                        policy.starvation[tid][k],
                        policy._starved_now[tid][k],
                    )
                else:
                    vals += (0, 0, 0, 0)
        return [int(v) for v in vals]

    def _set_policy_state(self, proc, tid: int, vals) -> None:
        """Inverse of :meth:`_policy_state` for one thread."""
        t = proc.threads[tid]
        t.gated = bool(vals[0])
        t.flushed = bool(vals[1])
        policy = proc.policy
        if self._kind in _REG_METERED:
            for k in (0, 1):
                policy.reg_usage[tid][k][:] = vals[2 + 2 * k : 4 + 2 * k]
        if self._kind == _CDPRF:
            for k in (0, 1):
                thr, rfoc, starv, pending = vals[6 + 4 * k : 10 + 4 * k]
                policy.threshold[tid][k] = thr
                policy.rfoc[tid][k] = rfoc
                policy.starvation[tid][k] = starv
                policy._starved_now[tid][k] = bool(pending)

    def prewarm(self, lines: np.ndarray) -> None:
        """Run ``lines`` (an int64 array, in access order) through the
        kernel's L2, then zero the prewarm's counters."""
        lines = np.ascontiguousarray(lines, dtype=np.int64)
        self._lib.cloop_prewarm(
            self.c, self._ffi.from_buffer("long long[]", lines), len(lines)
        )

    # -- region execution ---------------------------------------------- #

    def run(self, limit, stop_code, commit_target, single) -> int:
        return self._lib.cloop_run(
            self.c,
            int(limit),
            int(stop_code),
            -1 if commit_target is None else int(commit_target),
            1 if single else 0,
        )

    def err(self, which: int) -> int:
        return self._lib.cloop_err(self.c, which)

    def free(self) -> None:
        """Free the C machine now rather than at garbage collection."""
        self._ffi.release(self.c)

    def reset_stats(self) -> None:
        self._lib.cloop_reset_stats(self.c)

    def export(self, proc) -> None:
        """Copy every observable counter back into the Python objects.

        Layout mirrors ``cloop_export`` field for field; the per-thread
        queue lengths land in :attr:`last_queues` for deadlock reports.
        """
        n = self._lib.cloop_export(self.c, self._out, self._need)
        if n != self._need:  # pragma: no cover - layout bug guard
            raise RuntimeError(f"cloop export size mismatch: {n} != {self._need}")
        vals = self._ffi.unpack(self._out, self._need)
        pos = 0

        def take(k):
            nonlocal pos
            chunk = vals[pos : pos + k]
            pos += k
            return chunk

        (
            proc.cycle,
            proc._age,
            proc._commit_rr,
            proc._last_commit_cycle,
            proc._epoch,
            proc.finished_count,
            proc.policy._rr,
        ) = take(7)

        s = proc.stats
        (
            s.cycles,
            s.committed,
            s.renamed,
            s.fetched,
            s.issued,
            s.copies_renamed,
            s.copies_arrived,
            s.iq_stalls,
            s.iq_block_stalls,
        ) = take(9)
        for name, v in zip(_CAUSES, take(5)):
            s.rename_stall_cycles[name] = v
        s.reg_stall_events[0], s.reg_stall_events[1] = take(2)
        (
            s.mispredicts,
            s.squashed_uops,
            s.wrong_path_fetched,
            s.wrong_path_renamed,
        ) = take(4)
        imb = take(6)
        for pcls in range(3):
            s.imbalance[pcls][0] = imb[2 * pcls]
            s.imbalance[pcls][1] = imb[2 * pcls + 1]
        s.imbalance_cycles, s.issue_cycles = take(2)
        s.flushes, s.stalled_thread_cycles = take(2)

        mem = proc.mem
        tc = proc.tc
        for store in (mem.l1, mem.l2, mem.dtlb._store, tc._itlb._store, tc._lines):
            store.hits, store.misses, store.evictions = take(3)
        tc.hits, tc.misses = take(2)
        mem.bus_wait_cycles, mem.coalesced_misses = take(2)
        proc.predictor.lookups, proc.predictor.correct = take(2)
        proc.ipredictor.lookups, proc.ipredictor.correct = take(2)
        proc.icn.transfers, proc.icn.queue_wait_cycles = take(2)
        mob = proc.mob
        mob.occupancy, mob.peak, mob.forwards = take(3)
        for cl in proc.clusters:
            cl.iq.occupancy, cl.iq.peak = take(2)
        for cl in proc.clusters:
            for f in cl.regs.files:
                f.in_use, f.peak_in_use, f.alloc_count, f.capacity = take(4)

        self.last_queues = []
        for ti, t in enumerate(proc.threads):
            (
                cpt,
                committed,
                cursor,
                frp,
                icount,
                l2_pending,
                first_l2,
                fbu,
                rbu,
                wrong_path,
                fq_len,
                infl_len,
                rob_len,
                rob_peak,
                iq0,
                iq1,
                mob_pt,
            ) = take(17)
            s.committed_per_thread[ti] = cpt
            t.committed = committed
            t.cursor = cursor
            t.fetched_right_path = frp
            t.icount = icount
            t.l2_pending = l2_pending
            t.first_l2_miss_cycle = first_l2
            t.fetch_blocked_until = fbu
            t.rename_blocked_until = rbu
            t.wrong_path = bool(wrong_path)
            t.rob.peak = rob_peak
            proc.clusters[0].iq.per_thread[ti] = iq0
            proc.clusters[1].iq.per_thread[ti] = iq1
            mob.per_thread[ti] = mob_pt
            self.last_queues.append((fq_len, infl_len, rob_len))
            self._set_policy_state(proc, ti, take(_POLICY_STATE))


def _envelope_error(policy, steering, telemetry) -> str | None:
    """Why a machine built from these arguments is outside the C
    envelope (None: inside)."""
    if telemetry is not None:
        return "telemetry attached: the kernel has no sampler hooks"
    kind = type(policy)
    if kind not in _C_POLICY_KINDS:
        return f"policy {kind.__name__} is not in the C policy table"
    if not (
        steering is None
        or type(steering).preferred_cluster is Steering.preferred_cluster
        or getattr(policy, "forced_cluster", None) is not None
    ):
        return f"steering {type(steering).__name__} is not inlinable"
    return None


class CloopProcessor(VectorizedProcessor):
    """The whole-cycle-loop compiled backend (``cloop``).

    Inside the C envelope — no telemetry, inlinable or forced steering
    and a policy whose exact type is in the C table (all ten of the
    paper's schemes) — the entire simulation runs as bounded regions
    inside one resident kernel, and Python re-enters only at region
    boundaries, where the policy's state and the threads' gates are
    exported with the counters.  Outside the envelope (telemetry runs,
    DCRA, hill-climbing, policy subclasses, steering ablations), or
    without the kernel, every entry point delegates to the inherited
    ``vectorized`` engine, bit-identically; ``_cl_error`` says why.

    Which of the two a machine is, is decided once, at construction.  A
    machine the kernel owns is built lean (``python_resident`` False):
    its caches, TLBs, trace cache and branch predictors hold counters but
    no contents or tables, its threads hold no trace columns, and reading
    cache contents or predicting raises.
    Its C context is adopted at once and its :meth:`prewarm_caches`
    runs in C.  A machine that falls back is the full ``vectorized``
    machine and stays one, so one instance never mixes C-resident and
    Python-resident machine state.
    """

    backend_name = "cloop"

    def __init__(self, config, policy, traces, steering=None, telemetry=None):
        self._cl = None
        self._released = False
        kernel = None
        #: why this machine runs on the Python engine (None: it does not)
        self._cl_error: str | None = _envelope_error(policy, steering, telemetry)
        if self._cl_error is None:
            self._cl_error = kernel_unavailable_reason()
        if self._cl_error is None:
            try:
                kernel = _CloopContext._load()
            except RuntimeError as exc:  # build or load failed: run pure
                self._cl_error = str(exc)
        self.python_resident = kernel is None
        super().__init__(
            config, policy, traces, steering=steering, telemetry=telemetry
        )
        #: region exit tallies: {"limit": n, "done": n, "watchdog": n}
        self.region_exits = {REGION_LIMIT: 0, REGION_DONE: 0, "watchdog": 0}
        if kernel is not None:
            # past the load, a failure is a marshal bug: let it surface
            self._cl = _CloopContext(self, *kernel)

    def _pool_capacity(self) -> int:
        """Initial size of the kernel's slot pool: an upper bound on
        simultaneously live uops.

        Fetch queues + ROB partitions bound the non-copy uops; issue
        queues plus total register capacity bound the copies (an
        undelivered copy always holds a replica register).  Unbounded
        ROB/register configs start from their initial capacity, and the
        kernel doubles the pool when it runs out.
        """
        cap = 64
        fq_cap = self._fetch_queue_entries
        for t in self.threads:
            cap += fq_cap + t.rob.capacity
        for cl in self.clusters:
            cap += cl.iq.capacity
            for f in cl.regs.files:
                cap += f.capacity
        return cap

    # -- kernel lifecycle ---------------------------------------------- #

    def kernel_active(self) -> bool:
        """True when the whole-loop C kernel (not a fallback) is in use."""
        return self._cl is not None

    def release(self) -> None:
        """Free the resident C machine now that the run is over.

        The ``proc.policy`` / ``policy.proc`` cycle would otherwise keep
        the machine's C memory until a full collection.  The calling
        thread's previous released context is freed here and this one is
        held in its place, so the next machine's allocations reuse pages
        that are still mapped.  A released machine refuses to run again.
        """
        self._released = True
        cl, self._cl = self._cl, None
        if cl is not None:
            prev = getattr(_held, "ctx", None)
            _held.ctx = cl
            if prev is not None:
                prev.free()

    # -- entry points (the backend seam) -------------------------------- #

    def _in_kernel(self) -> bool:
        """Route an entry point: True = C kernel, False = fallback chain."""
        if self._released:
            raise RuntimeError("machine was released at the end of its run")
        return self._cl is not None

    def prewarm_caches(self) -> None:
        if not self._in_kernel():
            return super().prewarm_caches()
        self._cl.prewarm(self._prewarm_lines())
        self.mem.reset_stats()

    def run_loop(self, limit, stop="first_done", commit_target=None):
        if not self._in_kernel():
            return super().run_loop(limit, stop=stop, commit_target=commit_target)
        self._region(limit, _STOP_CODES[stop], commit_target, False)

    def step(self) -> None:
        if not self._in_kernel():
            return super().step()
        self._region(self.cycle + 1, _STOP_CODES["cycles"], None, True)

    def reset_measurement(self) -> None:
        if self._cl is not None:
            self._cl.reset_stats()
        super().reset_measurement()

    # -- bounded-region API --------------------------------------------- #

    def run_cycles(self, n: int, stop: str = "cycles") -> str:
        """Run a bounded region of at most ``n`` cycles.

        Returns the typed exit reason: :data:`REGION_DONE` when the
        ``stop`` condition (``"first_done"``/``"all_done"``) fired, else
        :data:`REGION_LIMIT`.  This is the boundary non-C policies and
        telemetry drivers use: observable state is fully exported at
        return, so arbitrary Python may inspect the machine between
        regions.  Works identically (reason included) on the pure
        fallback path.
        """
        if stop not in _STOP_CODES:
            raise ValueError(f"unknown stop mode {stop!r}")
        limit = self.cycle + n
        if self._in_kernel():
            return self._region(limit, _STOP_CODES[stop], None, False)
        super().run_loop(limit, stop=stop)
        done = (stop == "first_done" and self.finished_count > 0) or (
            stop == "all_done" and self.finished_count >= self._n_threads
        )
        reason = REGION_DONE if done else REGION_LIMIT
        self.region_exits[reason] += 1
        return reason

    # -- region driver --------------------------------------------------- #

    def _region(self, limit, stop_code, commit_target, single) -> str:
        cl = self._cl
        rc = cl.run(limit, stop_code, commit_target, single)
        cl.export(self)  # always: errors must leave observable state, too
        if rc == 2:
            self.region_exits["watchdog"] += 1
            parts = []
            for t, (fq_len, infl_len, rob_len) in zip(
                self.threads, cl.last_queues
            ):
                parts.append(
                    f"<T{t.tid} cur={t.cursor}/{len(t.trace)} "
                    f"fq={fq_len} ic={t.icount} rob={rob_len} "
                    f"com={t.committed}>"
                )
            raise DeadlockError(
                f"no commit for {_WATCHDOG_CYCLES} cycles at cycle "
                f"{self.cycle}: " + "; ".join(parts)
            )
        if rc == 3:
            raise RuntimeError(
                f"slot pool cannot grow past {1 << SLOT_BITS} slots "
                "(SLOT_BITS key packing limit)"
            )
        if rc == 4:
            err = cl.err(0)
            erra = cl.err(1)
            if err == 1:
                raise RuntimeError(f"issue queue {erra} overflow")
            if err == 2:
                raise RuntimeError(
                    f"freeing phys reg {erra} with live waiters"
                )
            if err == 3:
                raise RuntimeError("MOB occupancy underflow")
            if err == 4:
                raise RuntimeError("register file exhausted mid-rename")
            if err == 5:
                raise AssertionError(
                    "right-path uops squashed by a branch resolution"
                )
            if err == 7:
                raise AssertionError("register double-free")
            raise RuntimeError(f"cloop kernel error {err} (arg {erra})")
        reason = REGION_DONE if rc == 1 else REGION_LIMIT
        self.region_exits[reason] += 1
        return reason
