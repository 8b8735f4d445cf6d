"""The ``python`` cycle backend: the golden-reference fused loops.

Two flat cycle loops, one per front-end flavor.  Each cycle runs the
four pipeline stages in retire-to-fetch order — commit, issue,
dispatch, fetch — over one :class:`~repro.uarch.core.state.CoreState`.
:func:`_run_fused` (stream-backed front end) is the reference the
``native`` backend is pinned against; :func:`_run_fused_perop` queries
the live ITLB/L1I/predictor instead, and runs when streams are off or
cannot be computed.  The committed golden fixtures pin these loops
against the seed simulator, and ``tests/test_streams.py`` pins the two
front-end flavors against each other bit for bit.

Observer-visible fields (cycle, dispatched, block_reason, fetch state)
are published to the ``CoreState`` before each hook point, and all
mutated registers are written back on exit — normal or exceptional —
so a caller can stop a run (``s.limit``) and resume it later.
"""

from __future__ import annotations

from ....trace.ops import BRANCH, LOAD, PAUSE, STORE
from ..state import KIND_KEY_LIST

__all__ = ["PythonBackend", "_run_fused", "_run_fused_perop"]


def _run_fused(s, dispatch_hooks, cycle_end_hooks):
    """One flat cycle loop for the stream-backed path."""
    kinds = s.kinds
    addrs = s.addrs
    pcs = s.pcs
    dep1s = s.dep1s
    dep2s = s.dep2s
    completion = s.completion
    ready_after = s.ready_after
    rob = s.rob
    iq = s.iq
    fbuf = s.fbuf
    lat_table = s.lat_table
    issued_counts = s.issued_by_kind
    committed_counts = s.committed_by_kind
    kind_keys = KIND_KEY_LIST
    access_data = s.hier.access_data
    inst_miss_walk = s.hier.inst_miss_walk
    st = s.streams
    itlb_miss = st.itlb_miss
    l1i_hit = st.l1i_hit
    pf_l2 = st.pf_l2
    bp_wrong = st.bp_wrong
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
    rob_popleft = rob.popleft
    rob_append = rob.append
    fbuf_append = fbuf.append
    fbuf_popleft = fbuf.popleft
    iq_append = iq.append
    iq_pop = iq.pop

    cycle = s.cycle
    committed = s.committed
    fetch_idx = s.fetch_idx
    lq_used = s.lq_used
    sq_used = s.sq_used
    serialize_until = s.serialize_until
    last_fetch_line = s.last_fetch_line
    fetch_stall_until = s.fetch_stall_until
    fetch_stall_kind = s.fetch_stall_kind
    redirect_branch = s.redirect_branch
    iq_branches = s.iq_branches
    outstanding = s.outstanding_misses
    try:
        while committed < n and cycle < limit:
            # ---- commit ----
            if rob:
                c = 0
                while rob and c < commit_width:
                    head = rob[0]
                    t = completion[head]
                    if t < 0 or t > cycle:
                        break
                    rob_popleft()
                    committed += 1
                    c += 1
                    k = kinds[head]
                    if k == LOAD:
                        lq_used -= 1
                    elif k == STORE:
                        sq_used -= 1
                    committed_counts[kind_keys[k]] += 1
            # ---- issue ----
            if outstanding:
                outstanding = [t for t in outstanding if t > cycle]
            issued = 0
            iq_len = len(iq)
            if iq_branches:
                i = 0
                while i < iq_len and i < window:
                    idx = iq[i]
                    if kinds[idx] == BRANCH:
                        d1 = dep1s[idx]
                        t = completion[idx - d1] if d1 else 0
                        if 0 <= t <= cycle:
                            completion[idx] = cycle + branch_lat
                            iq_pop(i)
                            iq_len -= 1
                            issued += 1
                            issued_counts["branch"] += 1
                            iq_branches -= 1
                            if issued >= 2:  # branch-resolution ports
                                break
                            continue
                    i += 1
            i = 0
            while issued < issue_width and i < iq_len and i < window:
                idx = iq[i]
                if ready_after[idx] > cycle:
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
                if ready:
                    d2 = dep2s[idx]
                    if d2:
                        t = completion[idx - d2]
                        if t < 0 or t > cycle:
                            ready = False
                            if t > 0:
                                ready_after[idx] = t
                k = kinds[idx]
                if ready and k == LOAD and len(outstanding) >= mshrs:
                    ready = False
                if ready:
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
                            iq_branches -= 1
                    completion[idx] = cycle + lat
                    iq_pop(i)
                    iq_len -= 1
                    issued += 1
                    issued_counts[kind_keys[k]] += 1
                else:
                    i += 1
            # ---- dispatch ----
            dispatched = 0
            block_reason = None
            while dispatched < width:
                if not fbuf:
                    block_reason = "frontend"
                    break
                if cycle < serialize_until:
                    block_reason = "serialize"
                    break
                idx = fbuf[0]
                k = kinds[idx]
                if k == PAUSE and rob:
                    block_reason = "serialize"
                    break
                if len(rob) >= rob_cap:
                    block_reason = "rob"
                    break
                if len(iq) >= iq_cap:
                    block_reason = "iq"
                    break
                if k == LOAD and lq_used >= lq_cap:
                    block_reason = "lq"
                    break
                if k == STORE and sq_used >= sq_cap:
                    block_reason = "sq"
                    break
                fbuf_popleft()
                rob_append(idx)
                iq_append(idx)
                if k == LOAD:
                    lq_used += 1
                elif k == STORE:
                    sq_used += 1
                elif k == PAUSE:
                    serialize_until = cycle + pause_latency
                    stats.pause_ops += 1
                elif k == BRANCH:
                    iq_branches += 1
                dispatched += 1
            if dispatch_hooks:
                s.cycle = cycle
                s.dispatched = dispatched
                s.block_reason = block_reason
                s.redirect_branch = redirect_branch
                s.fetch_stall_kind = fetch_stall_kind
                for hook in dispatch_hooks:
                    hook(s)
            # ---- fetch (stream-backed) ----
            fetched = 0
            squash_pending = redirect_branch >= 0
            if squash_pending:
                t = completion[redirect_branch]
                if 0 <= t and cycle >= t + mispredict_penalty:
                    redirect_branch = -1
                    squash_pending = False
            if not squash_pending and cycle >= fetch_stall_until:
                fetch_stall_kind = None
                while (fetched < fetch_width and fetch_idx < n
                       and len(fbuf) < fbuf_cap):
                    idx = fetch_idx
                    pc = pcs[idx]
                    line = pc >> 6
                    if line != last_fetch_line:
                        tlb_lat = itlb_penalty if itlb_miss[idx] else 0
                        ic_lat = (0 if l1i_hit[idx]
                                  else inst_miss_walk(pc, pf_l2[idx]))
                        last_fetch_line = line
                        if tlb_lat or ic_lat:
                            fetch_stall_until = cycle + tlb_lat + ic_lat
                            fetch_stall_kind = (
                                "tlb" if tlb_lat >= ic_lat else "icache"
                            )
                            break
                    k = kinds[idx]
                    if k == BRANCH:
                        fbuf_append(idx)
                        fetch_idx = idx + 1
                        fetched += 1
                        if bp_wrong[idx]:
                            redirect_branch = idx
                            break
                    else:
                        fbuf_append(idx)
                        fetch_idx = idx + 1
                        fetched += 1
            # Fetch-stage cycle classification (Fig. 7a).
            if fetched > 0:
                stats.fetch_active_cycles += 1
            elif redirect_branch >= 0:
                stats.fetch_squash_cycles += 1
            elif fetch_stall_kind == "icache":
                stats.fetch_icache_stall_cycles += 1
            elif fetch_stall_kind == "tlb":
                stats.fetch_tlb_cycles += 1
            else:
                stats.fetch_misc_stall_cycles += 1
            if cycle_end_hooks:
                s.fetched = fetched
                s.fetch_idx = fetch_idx
                s.redirect_branch = redirect_branch
                s.fetch_stall_kind = fetch_stall_kind
                for hook in cycle_end_hooks:
                    hook(s)
            cycle += 1
    finally:
        s.cycle = cycle
        s.committed = committed
        s.fetch_idx = fetch_idx
        s.lq_used = lq_used
        s.sq_used = sq_used
        s.serialize_until = serialize_until
        s.last_fetch_line = last_fetch_line
        s.fetch_stall_until = fetch_stall_until
        s.fetch_stall_kind = fetch_stall_kind
        s.redirect_branch = redirect_branch
        s.iq_branches = iq_branches
        s.outstanding_misses = outstanding


def _run_fused_perop(s, dispatch_hooks, cycle_end_hooks):
    """One flat cycle loop for the per-op (``streams=False``) path.

    The same loop as :func:`_run_fused`, but the fetch stage queries
    the live ITLB/L1I/predictor objects per op instead of reading the
    precomputed streams: every new fetch line translates through the
    ITLB and looks up L1I (a miss walks L2 and below and probes the
    next line for the prefetcher), and every branch is predicted and
    updated in program order.  It is the parity baseline for the
    streams themselves.
    """
    kinds = s.kinds
    addrs = s.addrs
    pcs = s.pcs
    takens = s.takens
    dep1s = s.dep1s
    dep2s = s.dep2s
    completion = s.completion
    ready_after = s.ready_after
    rob = s.rob
    iq = s.iq
    fbuf = s.fbuf
    lat_table = s.lat_table
    issued_counts = s.issued_by_kind
    committed_counts = s.committed_by_kind
    kind_keys = KIND_KEY_LIST
    access_data = s.hier.access_data
    access_inst = s.hier.access_inst
    itlb_access = s.itlb.access
    bp = s.bp
    bp_predict = bp.predict
    bp_record = bp.record
    bp_update = bp.update
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
    rob_popleft = rob.popleft
    rob_append = rob.append
    fbuf_append = fbuf.append
    fbuf_popleft = fbuf.popleft
    iq_append = iq.append
    iq_pop = iq.pop

    cycle = s.cycle
    committed = s.committed
    fetch_idx = s.fetch_idx
    lq_used = s.lq_used
    sq_used = s.sq_used
    serialize_until = s.serialize_until
    last_fetch_line = s.last_fetch_line
    fetch_stall_until = s.fetch_stall_until
    fetch_stall_kind = s.fetch_stall_kind
    redirect_branch = s.redirect_branch
    iq_branches = s.iq_branches
    outstanding = s.outstanding_misses
    try:
        while committed < n and cycle < limit:
            # ---- commit ----
            if rob:
                c = 0
                while rob and c < commit_width:
                    head = rob[0]
                    t = completion[head]
                    if t < 0 or t > cycle:
                        break
                    rob_popleft()
                    committed += 1
                    c += 1
                    k = kinds[head]
                    if k == LOAD:
                        lq_used -= 1
                    elif k == STORE:
                        sq_used -= 1
                    committed_counts[kind_keys[k]] += 1
            # ---- issue ----
            if outstanding:
                outstanding = [t for t in outstanding if t > cycle]
            issued = 0
            iq_len = len(iq)
            if iq_branches:
                i = 0
                while i < iq_len and i < window:
                    idx = iq[i]
                    if kinds[idx] == BRANCH:
                        d1 = dep1s[idx]
                        t = completion[idx - d1] if d1 else 0
                        if 0 <= t <= cycle:
                            completion[idx] = cycle + branch_lat
                            iq_pop(i)
                            iq_len -= 1
                            issued += 1
                            issued_counts["branch"] += 1
                            iq_branches -= 1
                            if issued >= 2:  # branch-resolution ports
                                break
                            continue
                    i += 1
            i = 0
            while issued < issue_width and i < iq_len and i < window:
                idx = iq[i]
                if ready_after[idx] > cycle:
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
                if ready:
                    d2 = dep2s[idx]
                    if d2:
                        t = completion[idx - d2]
                        if t < 0 or t > cycle:
                            ready = False
                            if t > 0:
                                ready_after[idx] = t
                k = kinds[idx]
                if ready and k == LOAD and len(outstanding) >= mshrs:
                    ready = False
                if ready:
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
                            iq_branches -= 1
                    completion[idx] = cycle + lat
                    iq_pop(i)
                    iq_len -= 1
                    issued += 1
                    issued_counts[kind_keys[k]] += 1
                else:
                    i += 1
            # ---- dispatch ----
            dispatched = 0
            block_reason = None
            while dispatched < width:
                if not fbuf:
                    block_reason = "frontend"
                    break
                if cycle < serialize_until:
                    block_reason = "serialize"
                    break
                idx = fbuf[0]
                k = kinds[idx]
                if k == PAUSE and rob:
                    block_reason = "serialize"
                    break
                if len(rob) >= rob_cap:
                    block_reason = "rob"
                    break
                if len(iq) >= iq_cap:
                    block_reason = "iq"
                    break
                if k == LOAD and lq_used >= lq_cap:
                    block_reason = "lq"
                    break
                if k == STORE and sq_used >= sq_cap:
                    block_reason = "sq"
                    break
                fbuf_popleft()
                rob_append(idx)
                iq_append(idx)
                if k == LOAD:
                    lq_used += 1
                elif k == STORE:
                    sq_used += 1
                elif k == PAUSE:
                    serialize_until = cycle + pause_latency
                    stats.pause_ops += 1
                elif k == BRANCH:
                    iq_branches += 1
                dispatched += 1
            if dispatch_hooks:
                s.cycle = cycle
                s.dispatched = dispatched
                s.block_reason = block_reason
                s.redirect_branch = redirect_branch
                s.fetch_stall_kind = fetch_stall_kind
                for hook in dispatch_hooks:
                    hook(s)
            # ---- fetch (live machinery) ----
            fetched = 0
            squash_pending = redirect_branch >= 0
            if squash_pending:
                t = completion[redirect_branch]
                if 0 <= t and cycle >= t + mispredict_penalty:
                    redirect_branch = -1
                    squash_pending = False
            if not squash_pending and cycle >= fetch_stall_until:
                fetch_stall_kind = None
                while (fetched < fetch_width and fetch_idx < n
                       and len(fbuf) < fbuf_cap):
                    idx = fetch_idx
                    pc = pcs[idx]
                    line = pc >> 6
                    if line != last_fetch_line:
                        tlb_lat = itlb_access(pc)
                        ic_lat = access_inst(pc)
                        last_fetch_line = line
                        if tlb_lat or ic_lat:
                            fetch_stall_until = cycle + tlb_lat + ic_lat
                            fetch_stall_kind = (
                                "tlb" if tlb_lat >= ic_lat else "icache"
                            )
                            break
                    k = kinds[idx]
                    if k == BRANCH:
                        taken = bool(takens[idx])
                        pred = bp_predict(pc)
                        bp_record(pred, taken)
                        bp_update(pc, taken)
                        fbuf_append(idx)
                        fetch_idx = idx + 1
                        fetched += 1
                        if pred != taken:
                            redirect_branch = idx
                            break
                        # Correctly predicted taken branches redirect
                        # within the cycle (BTB hit); fetch continues at
                        # the target, whose line is checked next op.
                    else:
                        fbuf_append(idx)
                        fetch_idx = idx + 1
                        fetched += 1
            # Fetch-stage cycle classification (Fig. 7a).
            if fetched > 0:
                stats.fetch_active_cycles += 1
            elif redirect_branch >= 0:
                stats.fetch_squash_cycles += 1
            elif fetch_stall_kind == "icache":
                stats.fetch_icache_stall_cycles += 1
            elif fetch_stall_kind == "tlb":
                stats.fetch_tlb_cycles += 1
            else:
                stats.fetch_misc_stall_cycles += 1
            if cycle_end_hooks:
                s.fetched = fetched
                s.fetch_idx = fetch_idx
                s.redirect_branch = redirect_branch
                s.fetch_stall_kind = fetch_stall_kind
                for hook in cycle_end_hooks:
                    hook(s)
            cycle += 1
    finally:
        s.cycle = cycle
        s.committed = committed
        s.fetch_idx = fetch_idx
        s.lq_used = lq_used
        s.sq_used = sq_used
        s.serialize_until = serialize_until
        s.last_fetch_line = last_fetch_line
        s.fetch_stall_until = fetch_stall_until
        s.fetch_stall_kind = fetch_stall_kind
        s.redirect_branch = redirect_branch
        s.iq_branches = iq_branches
        s.outstanding_misses = outstanding


class PythonBackend:
    """The reference backend: interpreted fused loops, zero surprises."""

    name = "python"
    # The reference loops drive observer hooks themselves; observer
    # finalization stays with CycleCore.
    owns_observer_stats = False
    # Resumes any state, including a hand-stepped one.
    needs_fresh_state = False

    @staticmethod
    def available():
        return True

    @staticmethod
    def supports(streams, default_observers):
        return True, None

    @staticmethod
    def run(s, dispatch_hooks, cycle_end_hooks):
        if s.streams is not None:
            _run_fused(s, dispatch_hooks, cycle_end_hooks)
        else:
            _run_fused_perop(s, dispatch_hooks, cycle_end_hooks)


from . import register  # noqa: E402

register(PythonBackend())
