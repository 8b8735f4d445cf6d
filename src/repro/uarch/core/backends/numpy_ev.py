"""The ``numpy`` cycle backend: batched event-queue kernel.

The reference loop interprets every cycle of every op.  This backend
exploits two structural facts of the stream-backed pipeline to do
strictly less work for exactly the same bits:

* **Front-end events are precomputable.**  Fetch consults machinery
  only at line boundaries and branches, and the stream pass already
  knows, per op, whether that consultation stalls (ITLB miss or L1I
  miss — the only fetch paths with latency or L2 side effects) or
  redirects (mispredicted branch).  One vectorized NumPy pass folds
  those into a per-op event byte plus a next-event index, so fetch
  advances in one arithmetic step across every event-free run instead
  of op by op.  The scalar transition — including the live
  ``inst_miss_walk`` whose L2/L3 state must interleave bit-exactly
  with D-side traffic — runs only at event boundaries.

* **The ROB and fetch buffer are contiguous index ranges.**  Commit
  pops program order, dispatch moves the fetch-buffer head to the ROB
  tail, and a mispredict stalls fetch without flushing.  Three
  integers (``committed``, ``disp_next``, ``fetch_idx``) therefore
  replace both deques; only the out-of-order IQ stays a real list.

On top of that, fully-stalled stretches — every counter-visible stage
idle and the front end static — are advanced in closed form: the next
cycle anything *can* happen is the minimum over commit/issue/MSHR/
serialize/fetch-stall/redirect wake-up times, and the per-cycle slot,
fetch-class, and hotspot accounting (constant across such a stretch by
construction) is replicated arithmetically.  Any contradiction between
the wake scan and the pipeline's actual behavior degrades to a
one-cycle step, never to different bits.

The default observers (TMA slots, hotspot clockticks) are folded into
the kernel's local counters — which is why this backend only accepts
the default observer set — and published with identical dict key
order.  ``tests/test_backends.py`` pins the kernel against the golden
fixtures and the reference loop bit for bit.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque

from ....trace.ops import BRANCH, LOAD, PAUSE, STORE
from ..state import BLOCK_NAMES, FS_NAMES, KIND_KEY_LIST

try:
    import numpy as np
except ImportError:  # pragma: no cover - numpy is a core dependency
    np = None

__all__ = ["NumpyBackend"]

# Event byte per op: bit 0 = machinery consultation that may stall
# (new line with an ITLB or L1I miss), bit 1 = mispredict redirect.
_STALL = 1


def _event_tables(st, pcs):
    """(event bytes, next-event index list), cached on the streams.

    ``fe_ev[i]`` is nonzero iff fetch must run the scalar transition at
    op ``i``; ``next_ev[i]`` is the first index >= ``i`` with an event
    (``n`` past the last).  Line events are recomputed here rather than
    taken from the stream pass because squashes never change them: the
    fetch sequence is always the program-order op sequence.
    """
    cache = st.kernel
    if cache is None:
        cache = st.kernel = {}
    tables = cache.get("ev")
    if tables is None:
        lines = np.asarray(pcs, dtype=np.int64) >> 6
        n = lines.size
        line_ev = np.empty(n, dtype=bool)
        line_ev[0] = True
        line_ev[1:] = lines[1:] != lines[:-1]
        itlb = np.frombuffer(st.itlb_miss, dtype=np.uint8) != 0
        l1i_hit = np.frombuffer(st.l1i_hit, dtype=np.uint8) != 0
        bp_wrong = np.frombuffer(st.bp_wrong, dtype=np.uint8) != 0
        ev = (line_ev & (itlb | ~l1i_hit)).astype(np.uint8)
        ev |= bp_wrong.astype(np.uint8) << 1
        pos = np.where(ev != 0, np.arange(n, dtype=np.int64), n)
        next_ev = np.minimum.accumulate(pos[::-1])[::-1]
        tables = (ev.tobytes(), next_ev.tolist())
        cache["ev"] = tables
    return tables


def _run_kernel(s):
    """Advance *s* to completion (or the cycle limit), bit-exactly."""
    kinds = s.kinds
    addrs = s.addrs
    pcs = s.pcs
    dep1s = s.dep1s
    dep2s = s.dep2s
    funcs = s.funcs
    completion = s.completion
    ready_after = s.ready_after
    iq = s.iq
    lat_table = s.lat_table
    access_data = s.hier.access_data
    inst_miss_walk = s.hier.inst_miss_walk
    st = s.streams
    itlb_miss = st.itlb_miss
    l1i_hit = st.l1i_hit
    pf_l2 = st.pf_l2
    itlb_penalty = s.itlb_penalty
    stats = s.stats
    window = s.window
    width = s.width
    rob_cap = s.rob_cap
    iq_cap = s.iq_cap
    lq_cap = s.lq_cap
    sq_cap = s.sq_cap
    fetch_width = s.fetch_width
    issue_width = s.issue_width
    commit_width = s.commit_width
    mispredict_penalty = s.mispredict_penalty
    pause_latency = s.pause_latency
    l1d_hit_lat = s.l1d_hit_lat
    mshrs = s.mshrs
    fbuf_cap = s.fbuf_cap
    n = s.n
    limit = s.limit
    branch_lat = lat_table[BRANCH]
    iq_append = iq.append
    iq_pop = iq.pop
    fe_ev, next_ev = _event_tables(st, pcs)

    cycle = s.cycle
    start_cycle = cycle
    committed = s.committed
    disp_next = committed + len(s.rob)
    fetch_idx = s.fetch_idx
    lq_used = s.lq_used
    sq_used = s.sq_used
    serialize_until = s.serialize_until
    fetch_stall_until = s.fetch_stall_until
    fs_kind = FS_NAMES.index(s.fetch_stall_kind)
    redirect_branch = s.redirect_branch
    iq_b = [idx for idx in iq if kinds[idx] == BRANCH]  # sorted, iq is
    outstanding = s.outstanding_misses
    stall_paid = -1  # op whose fetch stall is already charged (ABA-safe)
    bisect = bisect_left

    # Observer accounting, folded into locals (see module docstring).
    ic = [0] * len(KIND_KEY_LIST)
    cc = [0] * len(KIND_KEY_LIST)
    sl_ret = sl_bad = sl_fel = sl_feb = sl_mem = sl_core = 0
    ser_stall = pause_count = 0
    f_active = f_squash = f_icache = f_tlb = f_misc = 0
    ticks = {}
    cur_fid = None
    cur_run = 0
    nc = issued = dispatched = fetched = block = tma = 0
    fb = 4
    issue_wake = 0  # earliest cycle the issue scan can do anything
    head_skip = 0   # window prefix known unready ...
    head_until = 0  # ... until this cycle
    try:
        while committed < n and cycle < limit:
            # ---- commit ----
            nc = 0
            if disp_next > committed:
                lim = committed + commit_width
                if lim > disp_next:
                    lim = disp_next
                while committed < lim:
                    t = completion[committed]
                    if t < 0 or t > cycle:
                        break
                    k = kinds[committed]
                    if k == LOAD:
                        lq_used -= 1
                    elif k == STORE:
                        sq_used -= 1
                    cc[k] += 1
                    committed += 1
                    nc += 1
            # ---- issue ----
            # Three scan accelerators, none observable:
            #
            # * Gate: after a scan that issues nothing, no window entry
            #   can issue before the earliest wake-up bound, so whole
            #   scans are skipped until then (dispatch feeding the
            #   window resets the gate, issuing pops shift positions
            #   and force a rescan).
            # * Head memo: the prefix of the window before the first
            #   issue consists of entries skipped with known bounds —
            #   an entry whose dep is unissued sits behind that dep,
            #   and a MSHR-gated load keeps every later load gated —
            #   so later scans resume past it until the earliest bound
            #   (``head_until``) expires.  A prepass pop inside the
            #   prefix (a branch needs only d1, which can beat the
            #   memoized d2 bound) invalidates it.
            # * Branch side-list: ``iq`` is always idx-sorted (ops are
            #   appended in program order, popped anywhere), so the
            #   prepass walks the sorted branch list ``iq_b`` instead
            #   of the whole window; position < window becomes
            #   idx <= iq[window-1], recomputed after each pop because
            #   pops slide later entries into the window mid-pass.
            #
            # ``ready_after`` in the reference loop is likewise a pure
            # accelerator, which is what makes all three safe.
            issued = 0
            if issue_wake <= cycle:
                if outstanding:
                    outstanding = [t for t in outstanding if t > cycle]
                iq_len = len(iq)
                if iq_b:
                    thr = iq[window - 1] if iq_len >= window else n
                    j = 0
                    nb = len(iq_b)
                    while j < nb:
                        idx = iq_b[j]
                        if idx > thr:
                            break
                        d1 = dep1s[idx]
                        t = completion[idx - d1] if d1 else 0
                        if 0 <= t <= cycle:
                            completion[idx] = cycle + branch_lat
                            p = bisect(iq, idx)
                            iq_pop(p)
                            if p < head_skip:
                                head_skip = 0
                            iq_len -= 1
                            thr = iq[window - 1] if iq_len >= window else n
                            iq_b.pop(j)
                            nb -= 1
                            issued += 1
                            ic[BRANCH] += 1
                            if issued >= 2:  # branch-resolution ports
                                break
                            continue
                        j += 1
                lim = iq_len if iq_len < window else window
                memo = False
                if head_skip and cycle < head_until:
                    i = head_skip
                    hb = head_until
                else:
                    i = 0
                    hb = limit
                if issued < issue_width:
                    while i < lim:
                        idx = iq[i]
                        t = ready_after[idx]
                        if t > cycle:
                            if t < hb:
                                hb = t
                            i += 1
                            continue
                        d1 = dep1s[idx]
                        ready = True
                        if d1:
                            t = completion[idx - d1]
                            if t < 0 or t > cycle:
                                ready = False
                                if t > 0:
                                    ready_after[idx] = t
                                    if t < hb:
                                        hb = t
                        if ready:
                            d2 = dep2s[idx]
                            if d2:
                                t = completion[idx - d2]
                                if t < 0 or t > cycle:
                                    ready = False
                                    if t > 0:
                                        ready_after[idx] = t
                                        if t < hb:
                                            hb = t
                        k = kinds[idx]
                        if ready and k == LOAD and len(outstanding) >= mshrs:
                            ready = False
                            t = min(outstanding)
                            if t < hb:
                                hb = t
                        if ready:
                            if not memo:
                                memo = True
                                head_skip = i
                                head_until = hb
                            if k == LOAD:
                                lat = access_data(addrs[idx])
                                if lat > l1d_hit_lat:
                                    outstanding.append(cycle + lat)
                            elif k == STORE:
                                access_data(addrs[idx])
                                lat = 1
                            elif k == PAUSE:
                                lat = pause_latency
                            else:
                                lat = lat_table[k]
                                if k == BRANCH:
                                    iq_b.pop(bisect(iq_b, idx))
                            completion[idx] = cycle + lat
                            iq_pop(i)
                            iq_len -= 1
                            lim = iq_len if iq_len < window else window
                            issued += 1
                            ic[k] += 1
                            if issued >= issue_width:
                                break
                        else:
                            i += 1
                    if not memo and i >= lim:
                        # Scan covered the window without issuing:
                        # every entry is bounded, so memoize the whole
                        # window as the head prefix.
                        head_skip = lim
                        head_until = hb
                if issued:
                    issue_wake = 0  # pops moved entries; rescan next cycle
                else:
                    # ``hb`` is the earliest bound over the whole
                    # window (a ready entry would have issued; a branch
                    # needs only d1, and a skipped branch's first
                    # pending dep IS d1 — the prepass saw it not ready).
                    issue_wake = hb
            # ---- dispatch ----
            dispatched = 0
            block = 0
            rob_len = disp_next - committed
            iq_len_d = len(iq)
            while dispatched < width:
                if fetch_idx <= disp_next:
                    block = 1  # frontend
                    break
                if cycle < serialize_until:
                    block = 2  # serialize
                    break
                k = kinds[disp_next]
                if k == PAUSE and rob_len:
                    block = 2
                    break
                if rob_len >= rob_cap:
                    block = 3  # rob
                    break
                if iq_len_d >= iq_cap:
                    block = 4  # iq
                    break
                if k == LOAD:
                    if lq_used >= lq_cap:
                        block = 5  # lq
                        break
                    lq_used += 1
                elif k == STORE:
                    if sq_used >= sq_cap:
                        block = 6  # sq
                        break
                    sq_used += 1
                elif k == PAUSE:
                    serialize_until = cycle + pause_latency
                    pause_count += 1
                elif k == BRANCH:
                    iq_b.append(disp_next)
                if iq_len_d < window:
                    issue_wake = 0  # new entry lands in the scan window
                iq_append(disp_next)
                disp_next += 1
                rob_len += 1
                iq_len_d += 1
                dispatched += 1
            # TMA slot classification (= TMASlotClassifier.on_dispatch,
            # evaluated on the same pre-fetch front-end state).
            sl_ret += dispatched
            leftover = width - dispatched
            if leftover:
                if block == 1:
                    if redirect_branch >= 0:
                        tma = 1
                        sl_bad += leftover
                    elif fs_kind:
                        tma = 2
                        sl_fel += leftover
                    else:
                        tma = 3
                        sl_feb += leftover
                elif block == 2:
                    tma = 5
                    sl_core += leftover
                    ser_stall += 1
                elif block == 5 or block == 6:
                    tma = 4
                    sl_mem += leftover
                elif block == 3 or block == 4:
                    tma = 5
                    if disp_next > committed:
                        t = completion[committed]
                        if kinds[committed] == LOAD and (t < 0 or t > cycle):
                            tma = 4
                    if tma == 4:
                        sl_mem += leftover
                    else:
                        sl_core += leftover
                else:
                    tma = 5
                    sl_core += leftover
            else:
                tma = 0
            # ---- fetch (event-queue) ----
            pfs = fs_kind
            pfu = fetch_stall_until
            prb = redirect_branch
            fetched = 0
            if redirect_branch >= 0:
                t = completion[redirect_branch]
                if 0 <= t and cycle >= t + mispredict_penalty:
                    redirect_branch = -1
                    pending = False
                else:
                    pending = True
            else:
                pending = False
            if not pending and cycle >= fetch_stall_until:
                fs_kind = 0
                m = fbuf_cap - (fetch_idx - disp_next)
                if m > fetch_width:
                    m = fetch_width
                r = n - fetch_idx
                if r < m:
                    m = r
                if m > 0:
                    if next_ev[fetch_idx] >= fetch_idx + m:
                        # Event-free run: the whole group is plain
                        # appends (incl. correctly-predicted branches).
                        fetch_idx += m
                        fetched = m
                    else:
                        end = fetch_idx + m
                        while fetch_idx < end:
                            idx = fetch_idx
                            ev = fe_ev[idx]
                            if ev & _STALL and idx != stall_paid:
                                tlb_lat = (itlb_penalty if itlb_miss[idx]
                                           else 0)
                                ic_lat = (0 if l1i_hit[idx]
                                          else inst_miss_walk(
                                              pcs[idx], pf_l2[idx]))
                                stall_paid = idx
                                if tlb_lat or ic_lat:
                                    fetch_stall_until = (
                                        cycle + tlb_lat + ic_lat)
                                    fs_kind = 2 if tlb_lat >= ic_lat else 1
                                    break
                            fetch_idx = idx + 1
                            fetched += 1
                            if ev & 2:  # mispredict redirect
                                redirect_branch = idx
                                break
            # Fetch-stage cycle classification (Fig. 7a).
            if fetched > 0:
                f_active += 1
                fb = 0
            elif redirect_branch >= 0:
                f_squash += 1
                fb = 1
            elif fs_kind == 1:
                f_icache += 1
                fb = 2
            elif fs_kind == 2:
                f_tlb += 1
                fb = 3
            else:
                f_misc += 1
                fb = 4
            # Hotspot attribution (= HotspotSampler.on_cycle_end),
            # run-length encoded to keep first-touch dict order.
            if disp_next > committed:
                fid = funcs[committed]
            elif fetch_idx < n:
                fid = funcs[fetch_idx]
            else:
                fid = funcs[n - 1]
            if fid == cur_fid:
                cur_run += 1
            else:
                if cur_run:
                    ticks[cur_fid] = ticks.get(cur_fid, 0) + cur_run
                cur_fid = fid
                cur_run = 1
            # ---- closed-form stall advance ----
            # A cycle where every stage was idle *and* fetch left its
            # state untouched repeats verbatim until the earliest
            # wake-up event; jump there and replicate the accounting.
            if (nc == 0 and issued == 0 and dispatched == 0
                    and fetched == 0 and fs_kind == pfs
                    and fetch_stall_until == pfu
                    and redirect_branch == prb):
                # The issue gate already holds the earliest cycle any
                # window entry can issue (an idle cycle never moves it:
                # no pops, no appends).
                wake = issue_wake
                if disp_next > committed:
                    t = completion[committed]
                    if 0 <= t < wake:
                        wake = t
                if wake > cycle + 1 and cycle < serialize_until < wake:
                    wake = serialize_until
                if wake > cycle + 1 and cycle < fetch_stall_until < wake:
                    wake = fetch_stall_until
                if wake > cycle + 1 and redirect_branch >= 0:
                    t = completion[redirect_branch]
                    if t >= 0:
                        t += mispredict_penalty
                        if t <= cycle:
                            wake = cycle + 1
                        elif t < wake:
                            wake = t
                skip = wake - cycle - 1
                if skip > limit - cycle - 1:
                    skip = limit - cycle - 1
                if skip > 0:
                    if tma == 1:
                        sl_bad += width * skip
                    elif tma == 2:
                        sl_fel += width * skip
                    elif tma == 3:
                        sl_feb += width * skip
                    elif tma == 4:
                        sl_mem += width * skip
                    else:
                        sl_core += width * skip
                    if block == 2:
                        ser_stall += skip
                    if fb == 1:
                        f_squash += skip
                    elif fb == 2:
                        f_icache += skip
                    elif fb == 3:
                        f_tlb += skip
                    else:
                        f_misc += skip
                    cur_run += skip
                    cycle += skip
            cycle += 1
    finally:
        s.cycle = cycle
        s.committed = committed
        s.fetch_idx = fetch_idx
        s.lq_used = lq_used
        s.sq_used = sq_used
        s.serialize_until = serialize_until
        if stall_paid == fetch_idx and fetch_idx < n:
            s.last_fetch_line = pcs[fetch_idx] >> 6
        elif fetch_idx:
            s.last_fetch_line = pcs[fetch_idx - 1] >> 6
        else:
            s.last_fetch_line = -1
        s.fetch_stall_until = fetch_stall_until
        s.fetch_stall_kind = FS_NAMES[fs_kind]
        s.redirect_branch = redirect_branch
        s.iq_branches = len(iq_b)
        s.outstanding_misses = outstanding
        s.rob = deque(range(committed, disp_next))
        s.fbuf = deque(range(disp_next, fetch_idx))
        s.dispatched = dispatched
        s.block_reason = BLOCK_NAMES[block]
        s.fetched = fetched
        issued_counts = s.issued_by_kind
        committed_counts = s.committed_by_kind
        for k, cnt in enumerate(ic):
            if cnt:
                issued_counts[KIND_KEY_LIST[k]] += cnt
        for k, cnt in enumerate(cc):
            if cnt:
                committed_counts[KIND_KEY_LIST[k]] += cnt
        stats.slots_retiring += sl_ret
        stats.slots_bad_spec += sl_bad
        stats.slots_fe_latency += sl_fel
        stats.slots_fe_bandwidth += sl_feb
        stats.slots_be_memory += sl_mem
        stats.slots_be_core += sl_core
        stats.serialize_stall_cycles += ser_stall
        stats.pause_ops += pause_count
        stats.fetch_active_cycles += f_active
        stats.fetch_squash_cycles += f_squash
        stats.fetch_icache_stall_cycles += f_icache
        stats.fetch_tlb_cycles += f_tlb
        stats.fetch_misc_stall_cycles += f_misc
        if cur_run:
            ticks[cur_fid] = ticks.get(cur_fid, 0) + cur_run
        # Published only when this call drove the trace to completion,
        # matching the reference path (HotspotSampler.finalize never
        # runs on an aborted or already-finished simulation).
        if committed >= n and cycle > start_cycle:
            stats.func_clockticks = ticks


class NumpyBackend:
    """Batched event-queue kernel over the precomputed streams."""

    name = "numpy"
    # The kernel folds the default observers into its own counters;
    # CycleCore must not run their finalize pass on top.
    owns_observer_stats = True
    # The kernel assumes the contiguous-range ROB/fetch buffer of a
    # fresh core; CycleCore runs a stepped state on python instead.
    needs_fresh_state = True

    @staticmethod
    def available():
        return np is not None

    @staticmethod
    def supports(streams, default_observers):
        if streams is None:
            return False, "no-streams"
        if not default_observers:
            return False, "custom-observers"
        return True, None

    @staticmethod
    def run(s, dispatch_hooks, cycle_end_hooks):
        _run_kernel(s)


from . import register  # noqa: E402

register(NumpyBackend())
