"""Precomputed in-order front-end streams for the cycle tier.

The timing loop's I-side machinery is *provably timing-independent*:
fetch never goes down a wrong path, so the sequence of L1I/ITLB line
lookups and branch predictions the front end performs is exactly the
program-order trace — whatever the cycle-by-cycle interleaving.  This
module walks that sequence once per ``(trace, I-side machinery
fingerprint)`` and records, per op:

* whether the fetch line's ITLB translation misses (the penalty is
  applied live, so one stream serves every core frequency),
* whether the fetch line hits L1I, and — on a miss — whether the
  next-line prefetcher will probe the shared L2,
* whether the branch predictor disagrees with the recorded outcome.

The cycle loops' stream-backed fetch stage (``_run_fused`` in
:mod:`.backends.python_ref` and its C transcription) then consumes
plain list lookups instead of calling into ``Cache``/``TLB``/predictor
objects.  The one coupling that is *not* timing-independent — L1I
misses spilling into the shared L2, whose state interleaves with
D-side traffic — is kept live: the stream only decides *that* a miss
happens; the L2-and-below walk still executes inside the fetch loop,
at the same point the per-op front end would issue it, so L2/L3 state
stays bit-exact.

Functional warmup decomposes the same way: the warmed L1I/ITLB/branch
state is I-side-only, the warmed L1D state is D-side-only (keyed by
L1D geometry), and the shared L2/L3 see a deterministic merge of both
sides' miss streams in program order.  ``apply_warm`` restores the
snapshots and replays only the merged L2 events — thousands of
accesses instead of a full per-op walk.

Streams attach to the (immutable) trace object, so every config in a
sweep that shares I-side parameters — the entire ROB/IQ, width, L2 and
frequency grids — reuses one precompute.  ``CycleCore(...,
streams=False)`` bypasses the whole mechanism and runs the per-op
front end.

When the trace came through the persistent trace store, the assembled
streams are additionally persisted next to the trace ``.npz`` as a
sidecar archive keyed by (trace key, I/D-side fingerprint,
:data:`STREAM_FORMAT_VERSION`): atomic save, memory-mapped load, and
the same quarantine/eviction regime (see
:meth:`~repro.trace.store.TraceStore.save_sidecar`).  A warm process
then skips the ``stream_precompute`` passes entirely.

The passes themselves run natively: ``_streams.c`` repeats the I-side
walk — ITLB, L1I with its prefetch probe, and all four branch
predictors — and the L1D walk operation for operation, taking the
predictors' table sizes and bounds from a live instance.  Its driver,
:mod:`.streams_native`, is imported (and compiles it) at the first
computation, never at import.
:func:`_compute_iside` and :func:`_compute_dside` stay as the reference
and as the fallback on hosts without a C compiler; both paths give the
same streams bit for bit, so there is no knob.  Each computation bumps
``repro_stream_precompute_total{side,path}`` and labels its
``stream_precompute`` span with the ``path`` that ran.
"""

from __future__ import annotations

import hashlib

import numpy as np

from ...trace.ops import BRANCH, LOAD, STORE
from ...trace.store import STREAM_SUFFIX
from ..branch import make_predictor
from ..cache import Cache
from ..tlb import TLB

__all__ = ["FrontEndStreams", "STREAM_FORMAT_VERSION", "get_streams"]

# Bump whenever the on-disk sidecar layout or the *content* computed
# for a given (trace, fingerprint) can change; old sidecars then miss
# under the new name and are recomputed + rewritten.
STREAM_FORMAT_VERSION = 1


def _iside_key(config, warm):
    l1i = config.l1i
    return (l1i.size_kb, l1i.assoc, l1i.line, int(config.itlb_entries),
            str(config.branch_predictor), bool(warm))


def _dside_key(config):
    l1d = config.l1d
    return (l1d.size_kb, l1d.assoc, l1d.line)


class FrontEndStreams:
    """Per-op I-side outcome arrays plus warm-state snapshots."""

    __slots__ = (
        # timed-pass per-op outcomes (bytearrays: C-speed int lookups)
        "l1i_hit", "pf_l2", "itlb_miss", "bp_wrong",
        # timed-pass machinery totals for SimStats
        "l1i_accesses", "l1i_misses", "bp_lookups", "bp_mispredicts",
        # warm-state restoration payload (None for cold runs)
        "warm", "l1d_sets", "l2_addrs", "l2_pfs",
    )

    def apply_warm(self, hier):
        """Put *hier* in the exact post-warmup state, cheaply.

        Restores the precomputed L1D set contents, replays the merged
        I+D program-order miss stream through the live L2/L3 (the only
        levels whose state couples both sides), and zeroes the counters
        — equivalent to ``functional_warmup`` + stat reset.
        """
        if not self.warm:
            return
        l1d = hier.l1d
        l1d._sets = [list(s) for s in self.l1d_sets]
        l2_access = hier.l2.access
        l3 = hier.l3
        if l3 is None:
            for addr, pf in zip(self.l2_addrs, self.l2_pfs):
                l2_access(addr)
        else:
            l3_access = l3.access
            for addr, pf in zip(self.l2_addrs, self.l2_pfs):
                if not l2_access(addr) and not pf:
                    l3_access(addr)
        for cache in (hier.l1d, hier.l2, hier.l3):
            if cache is not None:
                cache.reset_stats()
        hier.dram_accesses = 0
        hier.dram_bytes = 0


def _line_events(trace):
    """Trace indices where fetch probes a new line, cached on the trace.

    The front end (and warmup) query ITLB/L1I only when the op's line
    differs from the previous op's — a consecutive-dedup over program
    order.  Extracting those indices once with NumPy lets the stream
    walks touch only the ~half of ops that access machinery at all.
    """
    cached = getattr(trace, "_line_event_idx", None)
    if cached is None:
        lines = trace.pc >> 6
        mask = np.empty(lines.size, dtype=bool)
        if lines.size:
            mask[0] = True
            mask[1:] = lines[1:] != lines[:-1]
        cached = np.flatnonzero(mask).tolist()
        trace._line_event_idx = cached
    return cached


def _branch_events(trace):
    """Trace indices of branch ops, cached on the trace."""
    cached = getattr(trace, "_branch_event_idx", None)
    if cached is None:
        cached = np.flatnonzero(trace.kind == BRANCH).tolist()
        trace._branch_event_idx = cached
    return cached


def _compute_iside(trace, config, warm):
    """One I-side pass: warm phase (optional) then the timed pass.

    The ITLB/L1I stream and the branch-predictor stream consume
    disjoint event sets of the program-order walk and share no state,
    so each walks only its own (precomputed) event indices instead of
    every op — the exact per-event operation sequence of
    ``functional_warmup`` and the per-op front end.
    """
    pcs = trace.pc.tolist()
    takens = trace.taken.tolist()
    n = len(pcs)
    line_idx = _line_events(trace)
    branch_idx = _branch_events(trace)
    l1i = Cache(config.l1i, "l1i")
    itlb = TLB(config.itlb_entries, 1)
    bp = make_predictor(config.branch_predictor)
    line_bytes = config.l1i.line
    warm_pos = []
    warm_addr = []
    warm_pf = []

    if warm:
        # Mirrors functional_warmup's I-side exactly, recording every
        # L2 probe (prefetch installs and demand misses) with its
        # program position so it can be merged with the D-side stream.
        l1i_access = l1i.access
        l1i_contains = l1i.contains
        itlb_access = itlb.access
        for i in line_idx:
            pc = pcs[i]
            itlb_access(pc)
            if not l1i_access(pc):
                nxt = pc + line_bytes
                if not l1i_contains(nxt):
                    l1i_access(nxt)
                    warm_pos.append(i)
                    warm_addr.append(nxt)
                    warm_pf.append(1)
                warm_pos.append(i)
                warm_addr.append(pc)
                warm_pf.append(0)
        predict = bp.predict
        update = bp.update
        for i in branch_idx:
            pc = pcs[i]
            predict(pc)
            update(pc, bool(takens[i]))
        l1i.reset_stats()
        itlb.reset_stats()

    st = FrontEndStreams()
    l1i_hit = bytearray(n)
    pf_l2 = bytearray(n)
    itlb_miss = bytearray(n)
    bp_wrong = bytearray(n)
    l1i_access = l1i.access
    l1i_contains = l1i.contains
    itlb_access = itlb.access
    for i in line_idx:
        pc = pcs[i]
        if itlb_access(pc):
            itlb_miss[i] = 1
        if l1i_access(pc):
            l1i_hit[i] = 1
        else:
            nxt = pc + line_bytes
            if not l1i_contains(nxt):
                l1i_access(nxt)
                pf_l2[i] = 1
    lookups = 0
    mispredicts = 0
    predict = bp.predict
    update = bp.update
    for i in branch_idx:
        pc = pcs[i]
        taken = bool(takens[i])
        pred = predict(pc)
        update(pc, taken)
        lookups += 1
        if bool(pred) != taken:
            bp_wrong[i] = 1
            mispredicts += 1
    st.l1i_hit = l1i_hit
    st.pf_l2 = pf_l2
    st.itlb_miss = itlb_miss
    st.bp_wrong = bp_wrong
    st.l1i_accesses = l1i.accesses
    st.l1i_misses = l1i.misses
    st.bp_lookups = lookups
    st.bp_mispredicts = mispredicts
    st.warm = bool(warm)
    st.l1d_sets = None
    st.l2_addrs = None
    st.l2_pfs = None
    return st, (warm_pos, warm_addr, warm_pf)


def _compute_dside(trace, config):
    """Warmup's D-side: L1D miss stream + final L1D set contents."""
    mem_idx = getattr(trace, "_mem_event_idx", None)
    if mem_idx is None:
        mem_idx = np.flatnonzero(
            (trace.kind == LOAD) | (trace.kind == STORE)).tolist()
        trace._mem_event_idx = mem_idx
    mem_addrs = trace.addr[mem_idx].tolist() if mem_idx else []
    l1d = Cache(config.l1d, "l1d")
    access = l1d.access
    pos = []
    addr_out = []
    for i, a in zip(mem_idx, mem_addrs):
        if not access(a):
            pos.append(i)
            addr_out.append(a)
    sets = [list(s) for s in l1d._sets]
    return sets, pos, addr_out


def _merge_warm_events(iside_events, dside_events):
    """Merge I- and D-side warm L2 probes into program order.

    ``functional_warmup`` performs, per op, the I-side access first
    (prefetch probe before the demand probe) and the data access
    second, so at equal positions I-side events precede D-side ones.
    Each side is already in program order, so one stable sort on
    ``2 * position + side`` is that two-way merge.
    """
    ipos, iaddr, ipf = iside_events
    dpos, daddr = dside_events
    keys = np.concatenate((np.asarray(ipos, dtype=np.int64) * 2,
                           np.asarray(dpos, dtype=np.int64) * 2 + 1))
    order = np.argsort(keys, kind="stable")
    addrs = np.concatenate((np.asarray(iaddr, dtype=np.int64),
                            np.asarray(daddr, dtype=np.int64)))
    pfs = np.concatenate((np.asarray(ipf, dtype=np.int64),
                          np.zeros(len(dpos), dtype=np.int64)))
    return addrs[order].tolist(), pfs[order].tolist()


def stream_path():
    """Which precompute runs in this process: native or python."""
    from . import streams_native

    return "python" if streams_native.load_kernel() is None else "native"


def _precompute(side, trace, config, warm=None):
    """One I-side (``side="i"``) or D-side pass on the native path when
    it can run, else the Python reference; counted and spanned with the
    path that ran.  The native wrapper is imported here, at the first
    computation, so a process that only reads sidecars never loads it.
    """
    from ... import telemetry
    from . import streams_native as native

    lib = native.load_kernel()
    desc = None
    # An ITLB with no entries cannot evict; the reference raises on it.
    if lib is not None and side == "i" and config.itlb_entries >= 1:
        desc = native.predictor_desc(
            make_predictor(config.branch_predictor))
    path = "native" if lib is not None and (
        side == "d" or desc is not None) else "python"
    telemetry.counter(
        "repro_stream_precompute_total",
        help="Front-end stream computations by side and the path that ran.",
        side=side, path=path).inc()
    with telemetry.span("stream_precompute", side=side, path=path):
        if side == "d":
            if path == "native":
                return native.dside_pass(lib, trace, config)
            return _compute_dside(trace, config)
        if path == "native":
            return native.iside_pass(lib, trace, config, warm, desc)
        return _compute_iside(trace, config, warm)


# ----------------------------------------------------------------------
# Sidecar persistence.  `Runner.trace_for` stamps store-backed traces
# with `_stream_persist = (trace_store, trace_key)`; everything below
# is a no-op for traces built without the store (tests, ad-hoc builds).

def _sidecar_name(trace_key, ikey, dkey):
    fp = hashlib.sha256(repr((ikey, dkey)).encode()).hexdigest()[:16]
    return f"{trace_key}_fe-v{STREAM_FORMAT_VERSION}_{fp}{STREAM_SUFFIX}"


def _persist_handle(trace):
    handle = getattr(trace, "_stream_persist", None)
    if handle is None:
        return None, None
    return handle


def _save_sidecar(trace, ikey, dkey, st):
    """Best-effort persist of assembled streams next to the trace."""
    store, trace_key = _persist_handle(trace)
    if store is None:
        return
    meta = {
        "version": STREAM_FORMAT_VERSION,
        "ikey": repr(ikey),
        "dkey": repr(dkey),
        "n": len(st.l1i_hit),
        "warm": bool(st.warm),
        "l1i_accesses": st.l1i_accesses,
        "l1i_misses": st.l1i_misses,
        "bp_lookups": st.bp_lookups,
        "bp_mispredicts": st.bp_mispredicts,
    }
    arrays = {
        "l1i_hit": np.frombuffer(bytes(st.l1i_hit), dtype=np.uint8),
        "pf_l2": np.frombuffer(bytes(st.pf_l2), dtype=np.uint8),
        "itlb_miss": np.frombuffer(bytes(st.itlb_miss), dtype=np.uint8),
        "bp_wrong": np.frombuffer(bytes(st.bp_wrong), dtype=np.uint8),
    }
    if st.warm:
        lens = [len(s) for s in st.l1d_sets]
        flat = [tag for s in st.l1d_sets for tag in s]
        arrays["l1d_lens"] = np.asarray(lens, dtype=np.int64)
        arrays["l1d_tags"] = np.asarray(flat, dtype=np.int64)
        arrays["l2_addrs"] = np.asarray(st.l2_addrs, dtype=np.int64)
        arrays["l2_pfs"] = np.asarray(st.l2_pfs, dtype=np.uint8)
    store.save_sidecar(_sidecar_name(trace_key, ikey, dkey), meta, arrays)


def _load_sidecar(trace, ikey, dkey):
    """Persisted streams for the fingerprint, or ``None`` on miss.

    The fingerprint is part of the sidecar *name* (hashed) and echoed
    in its meta (verbatim), so a hash collision or stale layout can
    never resurrect the wrong streams — it just misses.
    """
    store, trace_key = _persist_handle(trace)
    if store is None:
        return None
    entry = store.load_sidecar(_sidecar_name(trace_key, ikey, dkey))
    if entry is None:
        return None
    meta, cols = entry
    if (meta.get("version") != STREAM_FORMAT_VERSION
            or meta.get("ikey") != repr(ikey)
            or meta.get("dkey") != repr(dkey)
            or meta.get("n") != len(trace)):
        return None
    try:
        st = FrontEndStreams()
        # bytearray copies keep the hot loops on C-speed int indexing
        # (the mmap pages back the copy, then drop out of the way).
        st.l1i_hit = bytearray(cols["l1i_hit"].tobytes())
        st.pf_l2 = bytearray(cols["pf_l2"].tobytes())
        st.itlb_miss = bytearray(cols["itlb_miss"].tobytes())
        st.bp_wrong = bytearray(cols["bp_wrong"].tobytes())
        st.l1i_accesses = int(meta["l1i_accesses"])
        st.l1i_misses = int(meta["l1i_misses"])
        st.bp_lookups = int(meta["bp_lookups"])
        st.bp_mispredicts = int(meta["bp_mispredicts"])
        st.warm = bool(meta["warm"])
        st.l1d_sets = None
        st.l2_addrs = None
        st.l2_pfs = None
        if st.warm:
            tags = cols["l1d_tags"].tolist()
            sets = []
            pos = 0
            for ln in cols["l1d_lens"].tolist():
                sets.append(tags[pos:pos + ln])
                pos += ln
            st.l1d_sets = sets
            st.l2_addrs = cols["l2_addrs"].tolist()
            st.l2_pfs = cols["l2_pfs"].tolist()
    except KeyError:
        return None
    return st


def get_streams(trace, config, warm=True):
    """The (cached) front-end streams for a trace/config pair.

    Results are memoized on the trace object: one I-side walk per
    distinct I-side fingerprint, one D-side walk per L1D geometry,
    shared by every config in a sweep.
    """
    cache = getattr(trace, "_fe_streams", None)
    if cache is None:
        cache = {}
        trace._fe_streams = cache
    ikey = _iside_key(config, warm)
    if not warm:
        cached = cache.get(ikey)
        if cached is None:
            st = _load_sidecar(trace, ikey, None)
            if st is not None:
                # No warm replay ever reads the I-side event stream
                # under a cold ikey, so an empty one is equivalent.
                cached = (st, ([], [], []))
            else:
                cached = _precompute("i", trace, config, warm)
                _save_sidecar(trace, ikey, None, cached[0])
            cache[ikey] = cached
        return cached[0]

    # Warm path: the assembled-object memo and the persistent sidecar
    # both sit in front of the compute passes, so a process (or
    # machine) that has seen this fingerprint before never runs
    # stream_precompute at all.
    dkey = _dside_key(config)
    fcache = getattr(trace, "_fe_final", None)
    if fcache is None:
        fcache = {}
        trace._fe_final = fcache
    fkey = (ikey, dkey)
    st = fcache.get(fkey)
    if st is not None:
        return st
    st = _load_sidecar(trace, ikey, dkey)
    if st is not None:
        fcache[fkey] = st
        return st

    cached = cache.get(ikey)
    if cached is None:
        cached = _precompute("i", trace, config, warm)
        cache[ikey] = cached
    base, iside_events = cached

    dcache = getattr(trace, "_fe_dside", None)
    if dcache is None:
        dcache = {}
        trace._fe_dside = dcache
    dside = dcache.get(dkey)
    if dside is None:
        dside = _precompute("d", trace, config)
        dcache[dkey] = dside
    l1d_sets, dpos, daddr = dside

    merged = _merge_warm_events(iside_events, (dpos, daddr))

    # Memoize the assembled warm-streams object itself (not just its
    # parts) so every job sharing this fingerprint reuses it, and
    # persist it so every later process skips the compute passes above.
    st = FrontEndStreams()
    for name in ("l1i_hit", "pf_l2", "itlb_miss", "bp_wrong",
                 "l1i_accesses", "l1i_misses", "bp_lookups",
                 "bp_mispredicts", "warm"):
        setattr(st, name, getattr(base, name))
    st.l1d_sets = l1d_sets
    st.l2_addrs, st.l2_pfs = merged
    fcache[fkey] = st
    _save_sidecar(trace, ikey, dkey, st)
    return st
