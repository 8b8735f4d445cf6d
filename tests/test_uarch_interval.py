"""The interval fidelity tier: accuracy, monotonicity, speed, shape."""

import time

import pytest

from gem5_golden import gem5_golden, gem5_traces
from repro.trace import TraceBuilder
from repro.uarch import gem5_baseline, host_i9, simulate
from repro.uarch.config import CacheConfig

WORKLOADS = ("ar", "co", "dm", "ma", "rj", "tu")
L2_SIZES = (256, 512, 1024, 2048)


# ----------------------------------------------------------------------
# Fidelity against the cycle tier
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", WORKLOADS)
def test_interval_ipc_within_15pct_of_cycle(workload):
    trace = gem5_traces()[workload]
    for mode, warm in (("warm", True), ("cold", False)):
        ref = gem5_golden()[workload][mode]
        ref_ipc = ref["instructions"] / ref["cycles"]
        stats = simulate(trace, gem5_baseline(), warm=warm,
                         model="interval")
        err = abs(stats.ipc - ref_ipc) / ref_ipc
        assert err <= 0.15, (
            f"{workload}/{mode}: interval IPC {stats.ipc:.3f} vs cycle "
            f"{ref_ipc:.3f} ({100 * err:.1f}% off)")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_interval_monotone_under_l2_sweep(workload):
    trace = gem5_traces()[workload]
    cycles = [
        simulate(trace, gem5_baseline(l2=CacheConfig(kb, 16, 14)),
                 model="interval").cycles
        for kb in L2_SIZES
    ]
    assert all(a >= b for a, b in zip(cycles, cycles[1:])), (
        f"{workload}: cycles not monotone over L2 sizes: {cycles}")


def test_interval_monotone_under_l1d_sweep():
    trace = gem5_traces()["ar"]
    cycles = [
        simulate(trace, gem5_baseline(l1d=CacheConfig(kb, 8, 4)),
                 model="interval").cycles
        for kb in (8, 16, 32, 64)
    ]
    assert all(a >= b for a, b in zip(cycles, cycles[1:]))


def test_interval_much_faster_than_cycle():
    """The point of the tier: an l2 mini-grid must run far faster.

    The full-grid speedup over the interpreted cycle loop is ~40-80x;
    asserting >=5x leaves room for noisy CI machines while still failing
    if the tier ever degrades into a per-op Python loop.  The baseline
    is the ``python`` reference backend: the compiled ``native`` default
    runs this grid about as fast as the interval tier does.
    """
    trace = gem5_traces()["ar"]
    configs = [gem5_baseline(l2=CacheConfig(kb, 16, 14)) for kb in L2_SIZES]
    t0 = time.perf_counter()
    for cfg in configs:
        simulate(trace, cfg, model="cycle", backend="python")
    t_cycle = time.perf_counter() - t0
    t0 = time.perf_counter()
    for cfg in configs:
        simulate(trace, cfg, model="interval")
    t_interval = time.perf_counter() - t0
    assert t_interval * 5 < t_cycle, (
        f"interval {t_interval:.3f}s vs cycle {t_cycle:.3f}s")


# ----------------------------------------------------------------------
# Stats shape and self-consistency
# ----------------------------------------------------------------------
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


class TestIntervalStats:
    def test_slot_identity_holds(self):
        stats = simulate(_simple_trace(), gem5_baseline(), model="interval")
        total = (stats.slots_retiring + stats.slots_bad_spec
                 + stats.slots_fe_latency + stats.slots_fe_bandwidth
                 + stats.slots_be_memory + stats.slots_be_core)
        assert total == stats.total_slots
        assert abs(sum(stats.topdown().values()) - 1.0) < 1e-9

    def test_kind_counts_match_trace(self):
        trace = _simple_trace()
        stats = simulate(trace, gem5_baseline(), model="interval")
        counts = trace.kind_counts()
        assert stats.committed_by_kind["load"] == counts["load"]
        assert stats.committed_by_kind["branch"] == counts["branch"]
        assert sum(stats.committed_by_kind.values()) == len(trace)

    def test_fetch_profile_normalizes(self):
        stats = simulate(_simple_trace(), gem5_baseline(), model="interval")
        profile = stats.fetch_profile()
        assert abs(sum(profile.values()) - 1.0) < 1e-9

    def test_cache_hierarchy_shape(self):
        stats = simulate(_simple_trace(8000), host_i9(), model="interval")
        assert set(stats.cache) == {"l1i", "l1d", "l2", "l3"}
        for level in stats.cache.values():
            assert 0 <= level["misses"] <= level["accesses"] or (
                level["accesses"] == 0 and level["misses"] >= 0)
        assert stats.dram_bytes == stats.dram_accesses * 64

    def test_serialization_roundtrip(self):
        from repro.uarch import SimStats

        stats = simulate(_simple_trace(), gem5_baseline(), model="interval")
        clone = SimStats.from_dict(stats.as_dict())
        assert clone.cycles == stats.cycles
        assert clone.topdown() == stats.topdown()

    def test_empty_trace(self):
        stats = simulate(TraceBuilder().build(), gem5_baseline(),
                         model="interval")
        assert stats.instructions == 0
        assert stats.cycles == 0

    def test_deterministic(self):
        trace = _simple_trace()
        a = simulate(trace, gem5_baseline(), model="interval")
        b = simulate(trace, gem5_baseline(), model="interval")
        assert a.as_dict() == b.as_dict()

    def test_warm_not_slower_than_cold(self):
        trace = _simple_trace(8000)
        warm = simulate(trace, gem5_baseline(), warm=True, model="interval")
        cold = simulate(trace, gem5_baseline(), warm=False, model="interval")
        assert warm.cycles <= cold.cycles

    def test_serial_chain_slower_than_parallel(self):
        def chain_trace(dependent):
            tb = TraceBuilder()
            tb.set_function("blas_dot")
            prev = None
            for _ in range(3000):
                dep = tb.dep_to(prev) if (dependent and prev is not None) \
                    else 0
                prev = tb.fp_add(0, dep1=dep)
            return tb.build()

        serial = simulate(chain_trace(True), gem5_baseline(),
                          model="interval")
        parallel = simulate(chain_trace(False), gem5_baseline(),
                            model="interval")
        assert serial.cycles > 1.5 * parallel.cycles

    def test_int_latency_respected(self):
        tb = TraceBuilder()
        tb.set_function("blas_dot")
        prev = None
        for _ in range(2000):
            dep = tb.dep_to(prev) if prev is not None else 0
            prev = tb.int_op(0, dep1=dep)
        trace = tb.build()
        fast = simulate(trace, gem5_baseline(), model="interval")
        slow = simulate(trace, gem5_baseline(int_latency=4),
                        model="interval")
        assert slow.cycles > fast.cycles

    def test_unknown_predictor_rejected(self):
        with pytest.raises(KeyError):
            simulate(_simple_trace(), gem5_baseline(
                branch_predictor="oracle"), model="interval")

    def test_pause_serializes(self):
        from repro.trace import kernels as tk

        tb = TraceBuilder()
        tk.trace_spin_wait(tb, 50)
        stats = simulate(tb.build(), gem5_baseline(), model="interval")
        assert stats.pause_ops == 50
        assert stats.serialize_stall_cycles > 0


# ----------------------------------------------------------------------
# host-i9 (three-level) calibration envelope — the ROADMAP item
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", ("ar", "dm", "ma", "rj"))
def test_interval_within_envelope_on_host_i9(workload):
    """Interval vs cycle IPC under the three-level host_i9 preset.

    The tier was calibrated on the two-level gem5 baseline; this pins
    how far it drifts with an L3 in the hierarchy.  Measured deltas at
    default scale / 80k budget (positive = interval optimistic):

        workload   warm      cold
        ar         -8.04%    -2.58%
        co        -10.23%   +11.97%
        dm        -12.98%    -9.93%
        ma         +0.98%    +1.56%
        rj         -7.91%    -3.45%
        tu         -6.29%   +15.41%

    The four workloads asserted here sit within the gem5 15% envelope
    warm and cold; co and tu are excluded (tu cold is at +15.4%, just
    outside) pending the host-i9 recalibration the ROADMAP names.
    """
    trace = gem5_traces()[workload]
    for warm in (True, False):
        ref = simulate(trace, host_i9(), warm=warm, model="cycle")
        approx = simulate(trace, host_i9(), warm=warm, model="interval")
        err = abs(approx.ipc - ref.ipc) / ref.ipc
        assert err <= 0.15, (
            f"{workload}/warm={warm}: interval IPC {approx.ipc:.3f} vs "
            f"cycle {ref.ipc:.3f} ({100 * err:.1f}% off)")
