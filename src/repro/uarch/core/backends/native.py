"""The ``native`` cycle backend: the fused loop compiled as C.

``_cycle_kernel.c`` is a line-for-line transcription of the reference
fused stream loop (``python_ref._run_fused``) over a contiguous-range
state representation, with the default observers (TMA slots, hotspot
clockticks) folded into plain counters.  It is compiled on
demand with whatever C compiler the host already has (``cc``/``gcc``/
``clang`` — no build-time dependency) into a content-addressed shared
object and loaded through :mod:`ctypes`, by :mod:`repro.nativelib`.

The D-side hierarchy runs in C too, behind one narrow port
(:class:`DSidePort`): L1D, the shared L2 with its interference, the
optional L3 and the DRAM counters, answering the two requests the
pipeline makes — ``access_data`` for a load/store and
``inst_miss_walk`` for the L2-and-below part of an L1I miss.  The port
keeps each set's ways in the same LRU-first order as
:class:`~repro.uarch.cache.Cache`, so it reproduces the Python
:class:`~repro.uarch.hierarchy.MemoryHierarchy` step for step; the
differential tests replay request sequences and generated configs
through both.  After the run the port writes every level's counters
back to the state's Python hierarchy, so ``CycleCore._finalize`` reads
them as usual.

The kernel reads the trace's own columns in their stored dtypes and the
stream byte arrays by buffer pointer: a native run makes no per-op
Python lists and keeps no widened copy of the trace.

This is the default backend wherever a C toolchain exists (see
:func:`..best_backend`).  Hosts without one never have it available,
and the default quietly resolves to ``python`` there.
"""

from __future__ import annotations

import os
from collections import deque
from ctypes import c_longlong, c_void_p
from itertools import chain

from .... import nativelib
from ....trace.ops import BRANCH, LOAD, PAUSE, STORE
from ...hierarchy import MemoryHierarchy
from ..state import BLOCK_NAMES, FS_NAMES, KIND_KEY_LIST

try:
    import numpy as np
except ImportError:  # pragma: no cover - numpy is a core dependency
    np = None

__all__ = ["DSidePort", "NativeBackend"]

_KERNEL_SRC = os.path.join(os.path.dirname(__file__), "_cycle_kernel.c")
_NKINDS = len(KIND_KEY_LIST)

# Params-array layout; must match the enum in _cycle_kernel.c.
(P_N, P_LIMIT, P_WINDOW, P_WIDTH,
 P_ROB_CAP, P_IQ_CAP, P_LQ_CAP, P_SQ_CAP,
 P_FETCH_W, P_ISSUE_W, P_COMMIT_W,
 P_MISP_PEN, P_PAUSE_LAT, P_ITLB_PEN,
 P_L1D_HIT, P_MSHRS, P_FBUF_CAP,
 P_KLOAD, P_KSTORE, P_KPAUSE, P_KBRANCH,
 P_CYCLE, P_COMMITTED, P_FETCH_IDX, P_LQ_USED, P_SQ_USED,
 P_SER_UNTIL, P_LAST_LINE, P_FSTALL_UNTIL,
 P_FS_KIND, P_REDIRECT,
 P_SL_RET, P_SL_BAD, P_SL_FEL, P_SL_FEB, P_SL_MEM, P_SL_CORE,
 P_SER_STALL, P_PAUSE_OPS,
 P_F_ACTIVE, P_F_SQUASH, P_F_ICACHE, P_F_TLB, P_F_MISC,
 P_DISP_NEXT, P_IQ_LEN, P_IQ_BRANCHES,
 P_DISPATCHED, P_BLOCK, P_FETCHED,
 P_N_OUT, P_TICKS) = range(52)
_NPARAMS = 52

# D-side port descriptor layout: a header, then C_FIELDS per level
# (L1D, L2, L3); must match the enums in _cycle_kernel.c.
(D_HAS_L3, D_L1D_HIT, D_L2_HIT, D_L3_HIT, D_DRAM_LAT,
 D_L1D_LINE, D_L1I_LINE, D_DRAM_ACCESSES, D_DRAM_BYTES,
 D_LEVELS) = range(10)
(C_SETS, C_ASSOC, C_SHIFT, C_PERIOD, C_CLOCK, C_FOREIGN,
 C_ACCESSES, C_MISSES, C_FIELDS) = range(9)

_lib = None
_build_error = None

# Exported functions: name -> (restype, argtypes).
_SIGNATURES = {
    "run_kernel": (None, [c_void_p] * 23),
    "port_warm": (None, [c_void_p] * 4 + [c_longlong]),
    "port_replay": (None, [c_void_p] * 6 + [c_longlong]),
}


def _load_library():
    """Compile (once, content-addressed) and load the kernel; or None.

    Any failure — no compiler, compile error, unloadable object — is
    remembered in ``_build_error`` so availability is probed exactly
    once per process and the selection layer can fall back cleanly.
    """
    global _lib, _build_error
    if _lib is not None or _build_error is not None:
        return _lib
    if np is None:
        _build_error = "numpy unavailable"
        return None
    try:
        _lib = nativelib.load(_KERNEL_SRC, "cycle_kernel", ("-O2",),
                              _SIGNATURES)
    except nativelib.BuildError as exc:
        # Not silent: select_backend's warn_once surfaces the reason
        # when the backend is requested explicitly.
        _build_error = str(exc)
    return _lib


def build_error():
    """Why the kernel is unavailable (None when fine / not yet probed)."""
    return _build_error


def _ptr(a):
    return a.ctypes.data


class DSidePort:
    """The C D-side hierarchy of one run: a descriptor plus tag arrays.

    A fresh port is the empty hierarchy a new
    :class:`~repro.uarch.hierarchy.MemoryHierarchy` has.  It then either
    replays a stream's warm payload itself (:meth:`warm`) or copies the
    full state of a live Python hierarchy (:meth:`load`).  The kernel
    drives it through ``port_access_data``/``port_inst_miss_walk``;
    :meth:`replay` drives the same two requests directly, for the
    differential tests.  :meth:`write_back` publishes the counters (and,
    on request, the tag state) to a Python hierarchy.  The tag state
    itself stays in the port, so a hierarchy written back after a run
    reports that run's counts but not its cache contents.
    """

    def __init__(self, config):
        levels = [(config.l1d, 0), (config.l2, getattr(
            config, "l2_interference_period", 0))]
        if config.l3 is not None:
            levels.append((config.l3, 0))
        freq = config.freq_ghz
        D = np.zeros(D_LEVELS + 3 * C_FIELDS, dtype=np.int64)
        D[D_HAS_L3] = config.l3 is not None
        D[D_L1D_HIT] = config.l1d.hit_latency
        D[D_L2_HIT] = config.l2.hit_latency_at(freq)
        if config.l3 is not None:
            D[D_L3_HIT] = config.l3.hit_latency_at(freq)
        D[D_DRAM_LAT] = config.dram_latency_cycles
        D[D_L1D_LINE] = config.l1d.line
        D[D_L1I_LINE] = config.l1i.line
        self.tags = []
        self.fill = []
        for j, (cc, period) in enumerate(levels):
            F = D[D_LEVELS + j * C_FIELDS:]
            F[C_SETS] = cc.sets
            F[C_ASSOC] = cc.assoc
            F[C_SHIFT] = cc.line.bit_length() - 1
            F[C_PERIOD] = int(period)
            F[C_FOREIGN] = -1
            self.tags.append(np.zeros((cc.sets, cc.assoc), dtype=np.int64))
            self.fill.append(np.zeros(cc.sets, dtype=np.int64))
        self.D = D
        ptrs = [_ptr(a) for pair in zip(self.tags, self.fill) for a in pair]
        self.bufs = np.array(ptrs + [0] * (6 - len(ptrs)), dtype=np.uintp)

    def _level(self, j):
        """Level *j*'s C_FIELDS block of the descriptor (a view)."""
        return self.D[D_LEVELS + j * C_FIELDS:]

    def _caches(self, hier):
        caches = [hier.l1d, hier.l2]
        if hier.l3 is not None:
            caches.append(hier.l3)
        return caches

    def _load_sets(self, j, sets):
        """Copy a ``Cache._sets``-shaped list of LRU-first lists."""
        lens = np.fromiter(map(len, sets), dtype=np.int64, count=len(sets))
        flat = np.fromiter(chain.from_iterable(sets), dtype=np.int64,
                           count=int(lens.sum()))
        starts = np.repeat(np.cumsum(lens) - lens, lens)
        rows = np.repeat(np.arange(len(sets)), lens)
        self.tags[j][rows, np.arange(flat.size) - starts] = flat
        self.fill[j][:] = lens

    def warm(self, streams):
        """Reach the post-warmup state from *streams*' warm payload: the
        L1D snapshot, then the merged L2 event replay in C, then zeroed
        counters (= ``FrontEndStreams.apply_warm``)."""
        if not streams.warm:
            return
        self._load_sets(0, streams.l1d_sets)
        addrs = np.array(streams.l2_addrs, dtype=np.int64)
        pfs = np.array(streams.l2_pfs, dtype=np.uint8)
        _load_library().port_warm(_ptr(self.D), _ptr(self.bufs),
                                  _ptr(addrs), _ptr(pfs), addrs.size)

    def load(self, hier):
        """Copy the complete state of a live Python hierarchy."""
        for j, cache in enumerate(self._caches(hier)):
            self._load_sets(j, cache._sets)
            F = self._level(j)
            F[C_CLOCK] = cache._interference_clock
            F[C_FOREIGN] = cache._foreign_tag
            F[C_ACCESSES] = cache.accesses
            F[C_MISSES] = cache.misses
        self.D[D_DRAM_ACCESSES] = hier.dram_accesses
        self.D[D_DRAM_BYTES] = hier.dram_bytes

    def replay(self, ops, addrs, prefetch):
        """Run a request sequence (op 0 = ``access_data(addr)``, op 1 =
        ``inst_miss_walk(addr, prefetch)``); returns the latencies."""
        ops = np.ascontiguousarray(ops, dtype=np.int8)
        addrs = np.ascontiguousarray(addrs, dtype=np.int64)
        prefetch = np.ascontiguousarray(prefetch, dtype=np.uint8)
        lat = np.zeros(ops.size, dtype=np.int64)
        if not addrs.size == prefetch.size == ops.size:
            raise ValueError("ops, addrs and prefetch differ in length")
        _load_library().port_replay(
            _ptr(self.D), _ptr(self.bufs), _ptr(ops), _ptr(addrs),
            _ptr(prefetch), _ptr(lat), ops.size)
        return lat.tolist()

    def write_back(self, hier, sets=False):
        """Publish every level's counters and the DRAM counters to
        *hier* (all ``CycleCore._finalize`` reads); with ``sets`` also
        the tags and interference state, for the differential tests."""
        for j, cache in enumerate(self._caches(hier)):
            F = self._level(j)
            cache.accesses = int(F[C_ACCESSES])
            cache.misses = int(F[C_MISSES])
            if sets:
                cache._sets = [row[:k] for row, k in
                               zip(self.tags[j].tolist(),
                                   self.fill[j].tolist())]
                cache._interference_clock = int(F[C_CLOCK])
                cache._foreign_tag = int(F[C_FOREIGN])
        hier.dram_accesses = int(self.D[D_DRAM_ACCESSES])
        hier.dram_bytes = int(self.D[D_DRAM_BYTES])


def _port_for(s):
    """The run's D-side port and the Python hierarchy it reports to.

    A hierarchy nobody has read yet is never built in Python: the port
    replays the warm payload itself.  One that was read (and so warmed)
    is copied instead.
    """
    port = DSidePort(s.config)
    hier = s.built_hierarchy()
    if hier is None:
        hier = MemoryHierarchy(s.config)
        if s.warm:
            port.warm(s.streams)
        s.hier = hier
    else:
        port.load(hier)
    return port, hier


def _run_kernel(lib, s):
    """Run the C loop over the trace's own columns; write results back."""
    n = s.n
    trace = s.trace
    st = s.streams
    # Views, not copies: the Trace constructor already fixed each dtype.
    kinds = np.ascontiguousarray(trace.kind, dtype=np.int8)
    addrs = np.ascontiguousarray(trace.addr, dtype=np.int64)
    pcs = np.ascontiguousarray(trace.pc, dtype=np.int64)
    dep1 = np.ascontiguousarray(trace.dep1, dtype=np.int32)
    dep2 = np.ascontiguousarray(trace.dep2, dtype=np.int32)
    funcs = np.ascontiguousarray(trace.func, dtype=np.int16)
    # ... and the stream bytearrays by buffer pointer.
    itlb, l1i, pf, bpw = (np.frombuffer(b, dtype=np.uint8) for b in (
        st.itlb_miss, st.l1i_hit, st.pf_l2, st.bp_wrong))
    if any(a.size != n for a in (itlb, l1i, pf, bpw)):
        raise ValueError("front-end streams do not match the trace length")
    if funcs.min() < 0:
        raise ValueError("negative function id in the trace")
    port, hier = _port_for(s)
    lat_tab = np.zeros(_NKINDS, dtype=np.int64)
    for k, v in s.lat_table.items():
        lat_tab[k] = v
    completion = np.full(n, -1, dtype=np.int64)
    ready_after = np.zeros(n, dtype=np.int64)
    iq = np.zeros(max(s.iq_cap, 1), dtype=np.int64)
    outstanding = np.zeros(max(s.mshrs, 1), dtype=np.int64)
    ic = np.zeros(_NKINDS, dtype=np.int64)
    cc = np.zeros(_NKINDS, dtype=np.int64)
    nfid = int(funcs.max(initial=0)) + 1
    tick_fid = np.zeros(nfid, dtype=np.int64)
    tick_val = np.zeros(nfid, dtype=np.int64)
    fid_pos = np.full(nfid, -1, dtype=np.int64)

    P = np.zeros(_NPARAMS, dtype=np.int64)
    P[P_N] = n
    P[P_LIMIT] = s.limit
    P[P_WINDOW] = s.window
    P[P_WIDTH] = s.width
    P[P_ROB_CAP] = s.rob_cap
    P[P_IQ_CAP] = s.iq_cap
    P[P_LQ_CAP] = s.lq_cap
    P[P_SQ_CAP] = s.sq_cap
    P[P_FETCH_W] = s.fetch_width
    P[P_ISSUE_W] = s.issue_width
    P[P_COMMIT_W] = s.commit_width
    P[P_MISP_PEN] = s.mispredict_penalty
    P[P_PAUSE_LAT] = s.pause_latency
    P[P_ITLB_PEN] = s.itlb_penalty
    P[P_L1D_HIT] = s.l1d_hit_lat
    P[P_MSHRS] = s.mshrs
    P[P_FBUF_CAP] = s.fbuf_cap
    P[P_KLOAD] = LOAD
    P[P_KSTORE] = STORE
    P[P_KPAUSE] = PAUSE
    P[P_KBRANCH] = BRANCH
    P[P_CYCLE] = s.cycle
    P[P_SER_UNTIL] = s.serialize_until
    P[P_LAST_LINE] = s.last_fetch_line
    P[P_FSTALL_UNTIL] = s.fetch_stall_until
    P[P_REDIRECT] = s.redirect_branch
    P[P_IQ_BRANCHES] = s.iq_branches
    start_cycle = s.cycle

    lib.run_kernel(
        _ptr(P), _ptr(port.D), _ptr(port.bufs),
        _ptr(kinds), _ptr(addrs), _ptr(pcs),
        _ptr(dep1), _ptr(dep2), _ptr(funcs),
        _ptr(itlb), _ptr(l1i), _ptr(pf), _ptr(bpw),
        _ptr(lat_tab),
        _ptr(completion), _ptr(ready_after),
        _ptr(iq), _ptr(outstanding),
        _ptr(ic), _ptr(cc),
        _ptr(tick_fid), _ptr(tick_val), _ptr(fid_pos))

    committed = int(P[P_COMMITTED])
    disp_next = int(P[P_DISP_NEXT])
    fetch_idx = int(P[P_FETCH_IDX])
    cycle = int(P[P_CYCLE])
    port.write_back(hier)
    s.cycle = cycle
    s.committed = committed
    s.fetch_idx = fetch_idx
    s.lq_used = int(P[P_LQ_USED])
    s.sq_used = int(P[P_SQ_USED])
    s.serialize_until = int(P[P_SER_UNTIL])
    s.last_fetch_line = int(P[P_LAST_LINE])
    s.fetch_stall_until = int(P[P_FSTALL_UNTIL])
    s.fetch_stall_kind = FS_NAMES[int(P[P_FS_KIND])]
    s.redirect_branch = int(P[P_REDIRECT])
    s.iq_branches = int(P[P_IQ_BRANCHES])
    s.completion = completion
    s.ready_after = ready_after
    s.iq = iq[:int(P[P_IQ_LEN])].tolist()
    s.outstanding_misses = outstanding[:int(P[P_N_OUT])].tolist()
    s.rob = deque(range(committed, disp_next))
    s.fbuf = deque(range(disp_next, fetch_idx))
    s.dispatched = int(P[P_DISPATCHED])
    s.block_reason = BLOCK_NAMES[int(P[P_BLOCK])]
    s.fetched = int(P[P_FETCHED])
    issued_counts = s.issued_by_kind
    committed_counts = s.committed_by_kind
    for k in range(_NKINDS):
        if ic[k]:
            issued_counts[KIND_KEY_LIST[k]] += int(ic[k])
        if cc[k]:
            committed_counts[KIND_KEY_LIST[k]] += int(cc[k])
    stats = s.stats
    stats.slots_retiring += int(P[P_SL_RET])
    stats.slots_bad_spec += int(P[P_SL_BAD])
    stats.slots_fe_latency += int(P[P_SL_FEL])
    stats.slots_fe_bandwidth += int(P[P_SL_FEB])
    stats.slots_be_memory += int(P[P_SL_MEM])
    stats.slots_be_core += int(P[P_SL_CORE])
    stats.serialize_stall_cycles += int(P[P_SER_STALL])
    stats.pause_ops += int(P[P_PAUSE_OPS])
    stats.fetch_active_cycles += int(P[P_F_ACTIVE])
    stats.fetch_squash_cycles += int(P[P_F_SQUASH])
    stats.fetch_icache_stall_cycles += int(P[P_F_ICACHE])
    stats.fetch_tlb_cycles += int(P[P_F_TLB])
    stats.fetch_misc_stall_cycles += int(P[P_F_MISC])
    # Published only when this call drove the trace to completion,
    # matching the reference path (HotspotSampler.finalize never runs
    # on an aborted or already-finished simulation).
    if committed >= n and cycle > start_cycle:
        stats.func_clockticks = {
            int(tick_fid[j]): int(tick_val[j])
            for j in range(int(P[P_TICKS]))
        }


class NativeBackend:
    """C transcription of the fused loop, compiled on demand."""

    name = "native"
    # The kernel folds the default observers into its own counters;
    # CycleCore must not run their finalize pass on top.
    owns_observer_stats = True
    # The kernel assumes the contiguous-range ROB/fetch buffer of a
    # fresh core; CycleCore runs a stepped state on python instead.
    needs_fresh_state = True

    @staticmethod
    def available():
        return _load_library() is not None

    @staticmethod
    def supports(streams, default_observers):
        if streams is None:
            return False, "no-streams"
        if not default_observers:
            return False, "custom-observers"
        return True, None

    @staticmethod
    def run(s, dispatch_hooks, cycle_end_hooks):
        _run_kernel(_load_library(), s)


from . import register  # noqa: E402

register(NativeBackend())
