"""The native front-end stream passes: ``_streams.c`` behind ctypes.

``_streams.c`` transcribes :func:`~.streams._compute_iside`,
:func:`~.streams._compute_dside` and the four predictor classes.  This
module compiles it (once, through :mod:`repro.nativelib`), fills its
descriptors from the config and a live predictor instance, and turns
its buffers back into the reference's types: ``bytearray`` streams,
int counters and int lists.  :func:`.streams._precompute` imports it at
the first computation, so a process that only reads stream sidecars
never loads it.  The descriptor layouts below must match the enums in
``_streams.c``.
"""

from __future__ import annotations

import os
from ctypes import c_int, c_longlong, c_void_p

import numpy as np

from ... import nativelib
from ...trace.ops import BRANCH, LOAD, STORE
from ..branch import LTAGE, LocalBP, PerceptronBP, TournamentBP
from .streams import FrontEndStreams

__all__ = ["dside_pass", "iside_pass", "load_kernel", "predictor_desc"]

_KERNEL_SRC = os.path.join(os.path.dirname(__file__), "_streams.c")

(Q_N, Q_WARM, Q_KBRANCH, Q_L1I_SETS, Q_L1I_ASSOC, Q_L1I_SHIFT,
 Q_L1I_LINE, Q_ITLB, Q_COUNT) = range(9)
(O_L1I_ACCESSES, O_L1I_MISSES, O_LOOKUPS, O_MISPREDICTS, O_NWARM,
 O_COUNT) = range(6)
(B_KIND, B_LOCAL_TABLE, B_LOCAL_HMASK, B_LOCAL_MAX, B_LOCAL_THRESH,
 B_NIDS, B_GMASK, B_GSIZE, B_BIM_SIZE, B_NTABLES,
 B_PC_TABLE, B_PC_HLEN, B_PC_WMAX, B_PC_THETA, B_TABLES) = range(15)
# Predictor kind codes (exact classes: a subclass may change the rules).
BP_LOCAL, BP_TOURNAMENT, BP_LTAGE, BP_PERCEPTRON = range(4)
_BP_KINDS = {LocalBP: BP_LOCAL, TournamentBP: BP_TOURNAMENT,
             LTAGE: BP_LTAGE, PerceptronBP: BP_PERCEPTRON}
_LTAGE_MAX_TABLES = 16
# Masks and sizes the C predictors hold in int64 without overflow.
_MAX_BITS = 62

_SIGNATURES = {
    "iside_pass": (c_int, [c_void_p] * 14),
    "dside_pass": (c_longlong, [c_longlong, c_void_p, c_void_p]
                   + [c_longlong] * 5 + [c_void_p] * 4),
    "bp_run": (c_int, [c_void_p] * 4 + [c_longlong, c_void_p]),
}

_lib = None
_build_error = None


def load_kernel():
    """The compiled passes (loaded at the first computation), or None
    when this host cannot build them; the reason stays in
    ``_build_error``."""
    global _lib, _build_error
    if _lib is None and _build_error is None:
        try:
            _lib = nativelib.load(_KERNEL_SRC, "streams", ("-O2",),
                                  _SIGNATURES)
        except nativelib.BuildError as exc:
            _build_error = str(exc)
    return _lib


def _ptr(a):
    return None if a is None else a.ctypes.data


def predictor_desc(bp):
    """The C descriptor of a fresh predictor instance, or None when the
    C port cannot run it: an unknown class, or a size or bound outside
    what it holds in int64 (the defaults are far inside)."""
    kind = _BP_KINDS.get(type(bp))
    if kind is None:
        return None
    tables = bp.tables if kind == BP_LTAGE else ()
    B = np.zeros(B_TABLES + 3 * len(tables), dtype=np.int64)
    B[B_KIND] = kind
    if kind in (BP_LOCAL, BP_TOURNAMENT):
        local = bp.local if kind == BP_TOURNAMENT else bp
        B[B_LOCAL_TABLE] = local.table_size
        B[B_LOCAL_HMASK] = local.hist_mask
        B[B_LOCAL_MAX] = local.max_counter
        B[B_LOCAL_THRESH] = local.threshold
        ok = local.table_size >= 1
    if kind == BP_TOURNAMENT:
        B[B_GMASK] = bp.global_mask
        B[B_GSIZE] = len(bp._gshare)
        ok = ok and len(bp._gshare) > bp.global_mask
    elif kind == BP_LTAGE:
        B[B_BIM_SIZE] = len(bp._bimodal)
        B[B_NTABLES] = len(tables)
        for j, t in enumerate(tables):
            B[B_TABLES + 3 * j:B_TABLES + 3 * j + 3] = (
                t.size, min(t.hist_len, 64), t.tag_mask)
        # A one-entry table never stops folding (in Python either).
        ok = (len(tables) <= _LTAGE_MAX_TABLES and len(bp._bimodal) >= 1
              and all(t.size >= 2 and t.hist_len >= 0 for t in tables))
    elif kind == BP_PERCEPTRON:
        B[B_PC_TABLE] = bp.table_size
        B[B_PC_HLEN] = bp.history_len
        B[B_PC_WMAX] = bp.weight_max
        B[B_PC_THETA] = bp.theta
        ok = bp.table_size >= 1 and bp.history_len >= 1
    if not ok or int(np.abs(B).max()) >> _MAX_BITS:
        return None
    return B


def _branch_pc_ids(trace):
    """``(ids, count)``: each branch's dense id of ``pc >> 2`` in branch
    order (the local-history tables' index), cached on the trace."""
    cached = getattr(trace, "_branch_pc_ids", None)
    if cached is None:
        keys = trace.pc[trace.kind == BRANCH] >> 2
        uniq, inverse = np.unique(keys, return_inverse=True)
        cached = (np.ascontiguousarray(inverse, dtype=np.int64), uniq.size)
        trace._branch_pc_ids = cached
    return cached


def iside_pass(lib, trace, config, warm, desc):
    """:func:`~.streams._compute_iside` in C: the same streams,
    counters and warm L2 events."""
    n = len(trace)
    l1i = config.l1i
    ids = None
    if desc[B_KIND] in (BP_LOCAL, BP_TOURNAMENT):
        ids, desc[B_NIDS] = _branch_pc_ids(trace)
    Q = np.zeros(Q_COUNT, dtype=np.int64)
    Q[Q_N] = n
    Q[Q_WARM] = bool(warm)
    Q[Q_KBRANCH] = BRANCH
    Q[Q_L1I_SETS] = l1i.sets
    Q[Q_L1I_ASSOC] = l1i.assoc
    Q[Q_L1I_SHIFT] = l1i.line.bit_length() - 1
    Q[Q_L1I_LINE] = l1i.line
    Q[Q_ITLB] = config.itlb_entries
    streams = [bytearray(n) for _ in range(4)]
    cap = 2 * n if warm else 0
    warm_pos = np.empty(cap, dtype=np.int64)
    warm_addr = np.empty(cap, dtype=np.int64)
    warm_pf = np.empty(cap, dtype=np.uint8)
    out = np.zeros(O_COUNT, dtype=np.int64)
    # Views, not copies: the Trace constructor already fixed each dtype
    # (held in locals for the call all the same).
    pcs = np.ascontiguousarray(trace.pc, dtype=np.int64)
    kinds = np.ascontiguousarray(trace.kind, dtype=np.int8)
    takens = np.ascontiguousarray(trace.taken, dtype=np.int8)
    rc = lib.iside_pass(
        _ptr(Q), _ptr(desc), _ptr(pcs), _ptr(kinds), _ptr(takens),
        _ptr(ids),
        *(_ptr(np.frombuffer(b, dtype=np.uint8)) for b in streams),
        _ptr(warm_pos), _ptr(warm_addr), _ptr(warm_pf), _ptr(out))
    if rc:
        raise MemoryError("stream precompute: out of memory")
    st = FrontEndStreams()
    st.l1i_hit, st.pf_l2, st.itlb_miss, st.bp_wrong = streams
    st.l1i_accesses = int(out[O_L1I_ACCESSES])
    st.l1i_misses = int(out[O_L1I_MISSES])
    st.bp_lookups = int(out[O_LOOKUPS])
    st.bp_mispredicts = int(out[O_MISPREDICTS])
    st.warm = bool(warm)
    st.l1d_sets = None
    st.l2_addrs = None
    st.l2_pfs = None
    nw = int(out[O_NWARM])
    return st, (warm_pos[:nw].tolist(), warm_addr[:nw].tolist(),
                warm_pf[:nw].tolist())


def dside_pass(lib, trace, config):
    """:func:`~.streams._compute_dside` in C: the same sets, positions
    and addresses."""
    n = len(trace)
    l1d = config.l1d
    tags = np.zeros((l1d.sets, l1d.assoc), dtype=np.int64)
    fill = np.zeros(l1d.sets, dtype=np.int64)
    pos = np.empty(n, dtype=np.int64)
    miss_addrs = np.empty(n, dtype=np.int64)
    kinds = np.ascontiguousarray(trace.kind, dtype=np.int8)
    addrs = np.ascontiguousarray(trace.addr, dtype=np.int64)
    misses = lib.dside_pass(
        n, _ptr(kinds), _ptr(addrs), LOAD, STORE,
        l1d.sets, l1d.assoc, l1d.line.bit_length() - 1,
        _ptr(tags), _ptr(fill), _ptr(pos), _ptr(miss_addrs))
    sets = [row[:k] for row, k in zip(tags.tolist(), fill.tolist())]
    return sets, pos[:misses].tolist(), miss_addrs[:misses].tolist()
