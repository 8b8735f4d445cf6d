"""The cycle-accurate tier: the out-of-order core driver.

``CycleCore`` builds one :class:`~repro.uarch.core.state.CoreState`
and hands the cycle loop to one of two execution backends
(:mod:`.backends`).  ``python`` runs the fused loops of
:mod:`.backends.python_ref`; the stream-backed ``_run_fused`` loop is
the reference, pinned to the committed golden fixtures for every gem5
workload, and ``python`` is also the fallback target.  ``native`` is
the on-demand-compiled C transcription of that loop with the D-side
hierarchy in C, and the default wherever a C toolchain exists.  Both
step the same state in the same retire-to-fetch order (commit, issue,
dispatch, fetch) and produce the same bits, which is why the backend
choice never appears in result-store keys; ``tests/test_backends.py``
and ``tests/test_streams.py`` pin every execution path to the
reference.
"""

from __future__ import annotations

from ... import telemetry
from ..stats import SimStats
from . import backends as cycle_backends
from .observers import HotspotSampler, TMASlotClassifier
from .state import CoreState
from .streams import get_streams

__all__ = ["CycleCore"]


class CycleCore:
    """An out-of-order core over one trace + config pair.

    ``streams="auto"`` (the default) precomputes the timing-independent
    I-side machinery outcomes once per (trace, I-side fingerprint) and
    runs the stream-backed front end — bit-identical, roughly halving
    the per-op machinery work.  Pass ``streams=False`` to run the
    per-op front end, which queries the live ITLB/L1I/predictor.

    ``backend`` selects the cycle-loop implementation (default: the
    ``REPRO_CYCLE_BACKEND`` environment knob, then the fastest
    available backend).  A backend that cannot represent this run
    bit-exactly — e.g. a compiled kernel without streams, with custom
    observers, or handed a state that was already stepped — routes to
    ``python``; ``self.backend`` names the implementation that actually
    runs and ``self.backend_fallback`` the reason it changed (a
    :data:`~.backends.FALLBACK_REASONS` key, or None).
    """

    def __init__(self, trace, config, max_cycles=None, warm=True,
                 observers=None, streams="auto", backend=None):
        self.config = config
        self.stats = SimStats(config.name, config.freq_ghz)
        self.stats.instructions = len(trace)
        self.stats.dispatch_width = config.dispatch_width
        if streams == "auto":
            streams = None
            if len(trace) > 0:
                try:
                    streams = get_streams(trace, config, warm=warm)
                except Exception:
                    # Machinery this pass cannot fingerprint (custom
                    # cache/predictor variants): per-op fallback,
                    # counted so a sweep that silently lost the
                    # stream speedup is visible in /metrics.
                    telemetry.counter(
                        "repro_stream_fallbacks_total",
                        help="Stream precompute failures that fell "
                             "back to the per-op front end.").inc()
                    streams = None
        elif not streams:
            streams = None
        if len(trace) == 0:
            self.state = None
        else:
            self.state = CoreState(trace, config, self.stats,
                                   max_cycles=max_cycles, warm=warm,
                                   streams=streams)
        self.observers = (list(observers) if observers is not None
                          else [TMASlotClassifier(), HotspotSampler()])
        requested, self._explicit = \
            cycle_backends.requested_backend(backend)
        self._backend, self.backend, self.backend_fallback = \
            cycle_backends.select_backend(requested, streams,
                                          observers is None,
                                          explicit=self._explicit)

    def run(self):
        """Step the pipeline to completion; returns populated stats."""
        s = self.state
        if s is None:  # empty trace
            return self.stats
        if self._backend.needs_fresh_state and not s.is_fresh():
            self._backend, self.backend, self.backend_fallback = \
                cycle_backends.fall_back(self.backend, "mid-flight",
                                         self._explicit)
        dispatch_hooks = [ob.on_dispatch for ob in self.observers]
        cycle_end_hooks = [ob.on_cycle_end for ob in self.observers]
        self._backend.run(s, dispatch_hooks, cycle_end_hooks)
        if s.committed < s.n:
            raise RuntimeError(
                f"simulation did not finish: {s.committed}/{s.n} ops in "
                f"{s.cycle} cycles (deadlock or max_cycles too small)"
            )
        return self._finalize()

    def _finalize(self):
        s = self.state
        stats = self.stats
        stats.cycles = s.cycle
        stats.issued_by_kind = dict(s.issued_by_kind)
        stats.committed_by_kind = dict(s.committed_by_kind)
        hier = s.hier
        streams = s.streams
        if streams is not None:
            # The run fetched the whole trace, so the precomputed
            # machinery totals are exactly what the live objects would
            # have counted.
            stats.branches = streams.bp_lookups
            stats.branch_mispredicts = streams.bp_mispredicts
            l1i_counts = {"accesses": streams.l1i_accesses,
                          "misses": streams.l1i_misses}
        else:
            stats.branches = s.bp.lookups
            stats.branch_mispredicts = s.bp.mispredicts
            l1i_counts = {"accesses": hier.l1i.accesses,
                          "misses": hier.l1i.misses}
        stats.cache = {
            "l1i": l1i_counts,
            "l1d": {"accesses": hier.l1d.accesses, "misses": hier.l1d.misses},
            "l2": {"accesses": hier.l2.accesses, "misses": hier.l2.misses},
        }
        if hier.l3 is not None:
            stats.cache["l3"] = {
                "accesses": hier.l3.accesses, "misses": hier.l3.misses,
            }
        stats.dram_accesses = hier.dram_accesses
        stats.dram_bytes = hier.dram_bytes
        if not self._backend.owns_observer_stats:
            for ob in self.observers:
                ob.finalize(s)
        return stats
