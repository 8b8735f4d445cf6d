"""The `uarch.core` package: golden parity and core structure.

The refactored cycle tier must be *bit-identical* to the monolithic
seed simulator; ``tests/golden/gem5_simstats.json`` holds the seed's
``SimStats.as_dict()`` for every gem5 workload (budget 80k, warm and
cold) and every run here must reproduce it field for field.
"""

import pytest

from gem5_golden import gem5_golden, gem5_traces
from repro.trace import TraceBuilder
from repro.uarch import CycleCore, gem5_baseline, simulate
from repro.uarch.core import MODELS
from repro.uarch.core.observers import (
    HotspotSampler,
    Observer,
    TMASlotClassifier,
)

WORKLOADS = ("ar", "co", "dm", "ma", "rj", "tu")


def _simple_trace(n_ops=2000):
    tb = TraceBuilder()
    tb.set_function("blas_axpy")
    r = tb.region("v", n_ops)
    for i in range(n_ops // 4):
        lx = tb.load(0, r, i)
        s = tb.fp_add(1, dep1=tb.dep_to(lx))
        tb.store(2, r, i, dep1=tb.dep_to(s))
        tb.branch(3, taken=(i % 8 != 7))
    return tb.build()


# ----------------------------------------------------------------------
# Golden parity with the pre-refactor monolith
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("mode", ("warm", "cold"))
def test_cycle_tier_matches_seed_golden(workload, mode):
    trace = gem5_traces()[workload]
    stats = simulate(trace, gem5_baseline(), warm=(mode == "warm"),
                     model="cycle")
    got = stats.as_dict()
    want = gem5_golden()[workload][mode]
    mismatched = [k for k in want if got[k] != want[k]]
    assert got == want, f"{workload}/{mode} diverges in {mismatched}"


# ----------------------------------------------------------------------
# Stage split semantics
# ----------------------------------------------------------------------
class TestStagedCore:
    def test_model_dispatch_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown model"):
            simulate(_simple_trace(), gem5_baseline(), model="oracle")
        assert set(MODELS) == {"cycle", "interval"}

    def test_kind_counts_cover_all_ops(self):
        trace = _simple_trace()
        stats = simulate(trace, gem5_baseline())
        assert sum(stats.issued_by_kind.values()) == len(trace)
        assert sum(stats.committed_by_kind.values()) == len(trace)
        # Same shape as the trace mix: everything dispatched retires.
        assert stats.committed_by_kind == stats.issued_by_kind

    def test_committed_counts_derived_at_commit(self):
        # Cap the run mid-flight: commit-stage counts must reflect only
        # actually-retired ops, not dispatch-time totals.
        trace = _simple_trace(4000)
        core = CycleCore(trace, gem5_baseline(), max_cycles=100)
        with pytest.raises(RuntimeError, match="did not finish"):
            core.run()
        state = core.state
        assert sum(state.committed_by_kind.values()) == state.committed
        assert state.committed < len(trace)
        assert (sum(state.issued_by_kind.values())
                >= sum(state.committed_by_kind.values()))

    def test_custom_observer_sees_every_cycle(self):
        class CycleCounter(Observer):
            def __init__(self):
                self.dispatches = 0
                self.ends = 0
                self.finalized = False

            def on_dispatch(self, s):
                self.dispatches += 1

            def on_cycle_end(self, s):
                self.ends += 1

            def finalize(self, s):
                self.finalized = True

        counter = CycleCounter()
        trace = _simple_trace()
        core = CycleCore(
            trace, gem5_baseline(),
            observers=[TMASlotClassifier(), HotspotSampler(), counter])
        stats = core.run()
        assert counter.dispatches == counter.ends == stats.cycles
        assert counter.finalized

    def test_default_observers_reproduce_accounting(self):
        trace = _simple_trace()
        stats = simulate(trace, gem5_baseline())
        total = (stats.slots_retiring + stats.slots_bad_spec
                 + stats.slots_fe_latency + stats.slots_fe_bandwidth
                 + stats.slots_be_memory + stats.slots_be_core)
        assert total == stats.total_slots
        assert sum(stats.func_clockticks.values()) == stats.cycles

    def test_observerless_run_skips_accounting_only(self):
        trace = _simple_trace()
        bare = CycleCore(trace, gem5_baseline(), observers=[]).run()
        full = simulate(trace, gem5_baseline())
        # Timing is observer-independent ...
        assert bare.cycles == full.cycles
        assert bare.committed_by_kind == full.committed_by_kind
        # ... only the sampled accounting disappears.
        assert bare.slots_retiring == 0
        assert bare.func_clockticks == {}
