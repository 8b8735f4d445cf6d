"""Shared core state and the functional warmup pass.

``CoreState`` is the single mutable object a cycle loop operates on:
the decoded trace (plain Python lists — the cycle loop's hot path),
the microarchitectural structures (ROB, IQ, fetch buffer, LSQ
occupancy), the memory machinery (cache hierarchy, ITLB, branch
predictor), and the per-cycle handoff fields each stage publishes for
the next (``dispatched``, ``block_reason``, ``fetched``).

The per-op lists and the stream-backed hierarchy are built on first
read (``functools.cached_property``, so later reads are plain instance
lookups): the interpreted loops read them, while the ``native`` kernel
reads the trace's own columns and runs its own D-side port, so a
native run never pays for either.

Keeping every field on one ``__slots__`` object is what lets
observers read the handoff fields at their hook points and lets a
stopped run resume: a state that was already stepped (see
:meth:`CoreState.is_fresh`) finishes on the ``python`` loop.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property

from ...trace.ops import (
    BRANCH, FP_ADD, FP_DIV, FP_MUL, INT_ALU, LOAD, PAUSE, STORE,
)
from ..branch import make_predictor
from ..hierarchy import MemoryHierarchy
from ..tlb import TLB

# Execution-unit class per kind code, indexable by the (dense, small)
# kind constants — a C-speed list lookup on the issue/commit hot path.
KIND_KEY_LIST = ["int", "fp", "fp", "fp", "load", "store", "branch",
                 "pause"]

# The integer codes the native kernel uses for
# `CoreState.fetch_stall_kind` and `CoreState.block_reason` (code =
# index).
FS_NAMES = (None, "icache", "tlb")
BLOCK_NAMES = (None, "frontend", "serialize", "rob", "iq", "lq", "sq")

__all__ = ["BLOCK_NAMES", "CoreState", "FS_NAMES", "KIND_KEYS",
           "KIND_KEY_LIST", "functional_warmup", "make_machinery"]

# Execution-unit class of each op kind (Fig. 7's stat buckets).
KIND_KEYS = {
    INT_ALU: "int",
    FP_ADD: "fp",
    FP_MUL: "fp",
    FP_DIV: "fp",
    LOAD: "load",
    STORE: "store",
    BRANCH: "branch",
    PAUSE: "pause",
}


def make_machinery(config):
    """Build the (hierarchy, itlb, predictor) triple for a config."""
    hier = MemoryHierarchy(config)
    itlb = TLB(config.itlb_entries,
               max(int(round(config.itlb_miss_penalty_ns * config.freq_ghz)),
                   1))
    bp = make_predictor(config.branch_predictor)
    return hier, itlb, bp


def functional_warmup(trace, hier, itlb, bp):
    """Warm caches, TLB, and branch predictor with one functional pass.

    Trace-driven timing on short traces is otherwise dominated by
    compulsory misses that a real profiling run (billions of
    instructions) never sees.  Capacity and conflict behavior is
    unaffected: the timed pass replays the same reference stream.
    """
    kinds = trace.kind.tolist()
    addrs = trace.addr.tolist()
    pcs = trace.pc.tolist()
    takens = trace.taken.tolist()
    last_line = -1
    for i in range(len(kinds)):
        k = kinds[i]
        pc = pcs[i]
        line = pc >> 6
        if line != last_line:
            itlb.access(pc)
            hier.access_inst(pc)
            last_line = line
        if k == LOAD or k == STORE:
            hier.access_data(addrs[i])
        elif k == BRANCH:
            bp.predict(pc)
            bp.update(pc, bool(takens[i]))


class CoreState:
    """Every mutable datum of one in-flight simulation."""

    __slots__ = (
        # the cached_property fields (per-op lists, `hier`) are stored
        # in the instance dict on first read
        "__dict__",
        "n", "trace", "warm",
        # configuration and derived constants (hoisted off `config`:
        # per-op attribute chains are measurable at this loop's scale)
        "config", "lat_table", "l1d_hit_lat", "mshrs", "window", "width",
        "limit", "fbuf_cap", "rob_cap", "iq_cap", "lq_cap", "sq_cap",
        "fetch_width", "issue_width", "commit_width",
        "mispredict_penalty", "pause_latency", "itlb_penalty",
        # memory machinery (itlb/bp are None under precomputed streams)
        "itlb", "bp", "streams",
        # microarchitectural structures
        "rob", "iq", "fbuf", "iq_branches",
        "fetch_idx", "committed", "lq_used", "sq_used", "cycle",
        "last_fetch_line", "fetch_stall_until", "fetch_stall_kind",
        "redirect_branch", "serialize_until", "outstanding_misses",
        # per-cycle stage handoffs
        "dispatched", "block_reason", "fetched",
        # stage-owned counters
        "issued_by_kind", "committed_by_kind",
        # the stats object stages and observers write into
        "stats",
    )

    def __init__(self, trace, config, stats, max_cycles=None, warm=True,
                 streams=None):
        n = len(trace)
        self.n = n
        self.trace = trace
        self.warm = warm

        self.config = config
        self.stats = stats
        self.streams = streams

        if streams is None:
            self.hier, self.itlb, self.bp = make_machinery(config)
            if warm:
                functional_warmup(trace, self.hier, self.itlb, self.bp)
                self.reset_machinery_stats()
        else:
            # Stream-backed front end: L1I/ITLB/predictor outcomes are
            # precomputed per-op, so only the shared hierarchy is live;
            # its warm state (snapshots + an L2 replay) is restored on
            # first read of `hier`.
            self.itlb = None
            self.bp = None

        self.rob_cap = config.rob_entries
        self.iq_cap = config.iq_entries
        self.lq_cap = config.lq_entries
        self.sq_cap = config.sq_entries
        self.fetch_width = config.fetch_width
        self.issue_width = config.issue_width
        self.commit_width = config.commit_width
        self.mispredict_penalty = config.mispredict_penalty
        self.pause_latency = config.pause_latency
        self.itlb_penalty = max(
            int(round(config.itlb_miss_penalty_ns * config.freq_ghz)), 1)
        self.lat_table = {
            INT_ALU: config.int_latency,
            FP_ADD: config.fp_add_latency,
            FP_MUL: config.fp_mul_latency,
            FP_DIV: config.fp_div_latency,
            BRANCH: config.int_latency,
        }
        self.l1d_hit_lat = config.l1d.hit_latency
        self.mshrs = config.l1d.mshrs
        self.window = config.scheduler_window
        self.width = config.dispatch_width
        self.limit = (max_cycles if max_cycles is not None
                      else 400 * n + 10_000)
        self.fbuf_cap = 8 * config.fetch_width  # decoupled front end

        self.rob = deque()
        self.iq = []
        self.iq_branches = 0  # branches currently in the IQ
        self.fbuf = deque()

        self.fetch_idx = 0
        self.committed = 0
        self.lq_used = 0
        self.sq_used = 0
        self.cycle = 0
        self.last_fetch_line = -1
        self.fetch_stall_until = 0
        self.fetch_stall_kind = None  # "icache" | "tlb"
        self.redirect_branch = -1     # index of unresolved mispredicted br
        self.serialize_until = 0
        self.outstanding_misses = []  # completion cycles of L1D misses

        self.dispatched = 0
        self.block_reason = None
        self.fetched = 0

        zero = {"int": 0, "fp": 0, "load": 0, "store": 0, "branch": 0,
                "pause": 0}
        self.issued_by_kind = dict(zero)
        self.committed_by_kind = dict(zero)

    # decoded trace (lists: ~2x faster element access than ndarrays)
    @cached_property
    def kinds(self):
        return self.trace.kind.tolist()

    @cached_property
    def addrs(self):
        return self.trace.addr.tolist()

    @cached_property
    def pcs(self):
        return self.trace.pc.tolist()

    @cached_property
    def takens(self):
        return self.trace.taken.tolist()

    @cached_property
    def dep1s(self):
        return self.trace.dep1.tolist()

    @cached_property
    def dep2s(self):
        return self.trace.dep2.tolist()

    @cached_property
    def funcs(self):
        return self.trace.func.tolist()

    @cached_property
    def completion(self):
        return [-1] * self.n  # -1 = not issued yet

    @cached_property
    def ready_after(self):
        return [0] * self.n  # issue-scan skip bound (see issue.py)

    @cached_property
    def hier(self):
        """The stream-backed run's hierarchy: fresh, then put in the
        exact post-warmup state (snapshots + the merged L2 replay)."""
        hier = MemoryHierarchy(self.config)
        if self.warm:
            self.streams.apply_warm(hier)
        return hier

    def built_hierarchy(self):
        """The Python hierarchy if something built it, else None."""
        return self.__dict__.get("hier")

    def is_fresh(self):
        """True until a cycle loop has stepped this state."""
        return not (self.cycle or self.committed or self.fetch_idx
                    or self.rob or self.fbuf or self.iq)

    def reset_machinery_stats(self):
        """Zero the warmup pass out of every machinery counter."""
        hier = self.hier
        for cache in (hier.l1i, hier.l1d, hier.l2, hier.l3):
            if cache is not None:
                cache.reset_stats()
        hier.dram_accesses = 0
        hier.dram_bytes = 0
        if self.itlb is not None:
            self.itlb.reset_stats()
        if self.bp is not None:
            self.bp.lookups = 0
            self.bp.mispredicts = 0
