"""Differential tests of the ``native`` backend against the reference.

Two levels:

* the C D-side port alone, replaying one request sequence
  (``access_data`` / ``inst_miss_walk``) next to a Python
  :class:`~repro.uarch.hierarchy.MemoryHierarchy`: every latency, every
  counter and the final tag state must agree;
* whole runs over generated ``CoreConfig``s and synthetic
  ``TraceBuilder.emit_run`` traces: native ``SimStats.as_dict()`` must
  equal python bit for bit.  The Hypothesis budget is small and seeded
  here; raise ``max_examples`` locally to fuzz harder.
"""

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from repro.trace import TraceBuilder
from repro.trace import functions as ftab
from repro.trace.ops import (BRANCH, FP_ADD, FP_DIV, FP_MUL, INT_ALU, LOAD,
                             PAUSE, STORE)
from repro.uarch import CacheConfig, gem5_baseline, simulate
from repro.uarch.core import backends as cycle_backends
from repro.uarch.core.backends.native import DSidePort
from repro.uarch.hierarchy import MemoryHierarchy

pytestmark = pytest.mark.skipif(
    not cycle_backends.get_backend("native").available(),
    reason="native backend unavailable on this host")


def _small_config(l3=True, period=3):
    return gem5_baseline(
        l1d=CacheConfig(1, 2, 4),
        l2=CacheConfig(8, 4, 2, uncore_ns=4.0),
        l3=CacheConfig(32, 8, 10, uncore_ns=6.0) if l3 else None,
        l2_interference_period=period)


def _requests(rng, n, lines=400):
    ops = (rng.random(n) < 0.3).astype(np.int8)
    addrs = rng.integers(0, lines, n) * 64 + rng.integers(0, 64, n)
    prefetch = (rng.random(n) < 0.5).astype(np.uint8)
    return ops, addrs, prefetch


def _python_replay(hier, ops, addrs, prefetch):
    return [hier.inst_miss_walk(a, p) if o else hier.access_data(a)
            for o, a, p in zip(ops.tolist(), addrs.tolist(),
                               prefetch.tolist())]


def _state(hier):
    levels = [hier.l1d, hier.l2] + ([hier.l3] if hier.l3 else [])
    return ([(c.accesses, c.misses, c._sets, c._interference_clock,
              c._foreign_tag) for c in levels],
            hier.dram_accesses, hier.dram_bytes)


@pytest.mark.parametrize("l3", (True, False))
@pytest.mark.parametrize("period", (0, 1, 3))
def test_port_replays_like_memory_hierarchy(l3, period):
    config = _small_config(l3=l3, period=period)
    rng = np.random.default_rng(7)
    ops, addrs, prefetch = _requests(rng, 4000)
    ref = MemoryHierarchy(config)
    want = _python_replay(ref, ops, addrs, prefetch)

    port = DSidePort(config)
    got = port.replay(ops, addrs, prefetch)
    assert got == want
    out = MemoryHierarchy(config)
    port.write_back(out, sets=True)
    assert _state(out) == _state(ref)


def test_port_loads_a_live_hierarchy():
    # Start the port mid-sequence from a Python hierarchy's full state
    # (tags, LRU order, interference clock, counters) and finish there.
    config = _small_config()
    rng = np.random.default_rng(11)
    ops, addrs, prefetch = _requests(rng, 3000)
    ref = MemoryHierarchy(config)
    _python_replay(ref, ops[:1500], addrs[:1500], prefetch[:1500])
    port = DSidePort(config)
    port.load(ref)
    want = _python_replay(ref, ops[1500:], addrs[1500:], prefetch[1500:])
    assert port.replay(ops[1500:], addrs[1500:], prefetch[1500:]) == want
    out = MemoryHierarchy(config)
    port.write_back(out, sets=True)
    assert _state(out) == _state(ref)


def test_port_warm_matches_apply_warm():
    from gem5_golden import gem5_traces
    from repro.uarch.core.streams import get_streams

    config = gem5_baseline()
    streams = get_streams(gem5_traces()["rj"], config, warm=True)
    ref = MemoryHierarchy(config)
    streams.apply_warm(ref)
    port = DSidePort(config)
    port.warm(streams)
    out = MemoryHierarchy(config)
    port.write_back(out, sets=True)
    assert _state(out) == _state(ref)


# ----------------------------------------------------------------------
# Whole runs over generated configs and traces
# ----------------------------------------------------------------------
_KINDS = np.array([INT_ALU, INT_ALU, FP_ADD, FP_MUL, FP_DIV, LOAD, LOAD,
                   STORE, BRANCH, BRANCH, PAUSE], dtype=np.int8)


@st.composite
def core_configs(draw):
    l1d_kb = draw(st.sampled_from((1, 2, 4, 32)))
    l2_kb = draw(st.sampled_from((16, 64, 256, 1024)))
    l3 = draw(st.booleans())
    return gem5_baseline(
        freq_ghz=draw(st.sampled_from((1.0, 2.0, 3.0, 4.5))),
        rob_entries=draw(st.sampled_from((16, 64, 224))),
        iq_entries=draw(st.sampled_from((8, 32, 128))),
        fetch_width=draw(st.sampled_from((2, 4))),
        l1d=CacheConfig(l1d_kb, draw(st.sampled_from((1, 2, 8))), 4,
                        mshrs=draw(st.sampled_from((2, 8, 32)))),
        l2=CacheConfig(l2_kb, draw(st.sampled_from((2, 4, 16))), 2,
                       uncore_ns=4.0),
        l3=(CacheConfig(2048, 16, 10, uncore_ns=6.0) if l3 else None),
        l2_interference_period=draw(st.sampled_from((0, 1, 3, 7))),
    )


@st.composite
def emitted_traces(draw):
    """A trace of a few functions, each a run of random ops whose data
    addresses reuse a footprint of ``lines`` lines and whose branches
    are taken with probability ``bias``."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lines = draw(st.sampled_from((16, 256, 4096)))
    bias = draw(st.sampled_from((0.1, 0.5, 0.95)))
    tb = TraceBuilder(replicas=2)
    data = tb.region("data", lines * 8)
    for _ in range(draw(st.integers(1, 4))):
        func = ftab.FUNCTIONS[int(rng.integers(len(ftab.FUNCTIONS)))]
        tb.set_function(func.name)
        tb.set_replica(int(rng.integers(4)))
        n = int(rng.integers(200, 700))
        start = len(tb)
        kinds = rng.choice(_KINDS, n)
        mem = (kinds == LOAD) | (kinds == STORE)
        addrs = np.where(mem, data.base + rng.integers(0, lines * 8, n) * 8,
                         0)
        # Backward dependency distances that stay inside the trace.
        reach = np.arange(start, start + n)
        dep1 = np.minimum(rng.integers(0, 12, n), reach)
        dep2 = np.minimum(rng.integers(0, 40, n), reach) * (
            rng.random(n) < 0.3)
        tb.emit_run(kinds, addrs=addrs, takens=rng.random(n) < bias,
                    dep1s=dep1, dep2s=dep2,
                    branch_sites=rng.integers(0, 24, n))
    return tb.build()


def _outcome(trace, config, warm, backend):
    try:
        return simulate(trace, config, warm=warm, backend=backend).as_dict()
    except RuntimeError as exc:  # both backends must agree on deadlock
        return ("RuntimeError", str(exc))


@seed(2024)
@settings(max_examples=25, deadline=None)
@given(config=core_configs(), trace=emitted_traces(), warm=st.booleans())
def test_native_matches_python_on_generated_runs(config, trace, warm):
    want = _outcome(trace, config, warm, "python")
    got = _outcome(trace, config, warm, "native")
    if isinstance(want, dict):
        diffs = [k for k in want if got.get(k) != want[k]]
        assert got == want, f"native diverges in {diffs}"
    else:
        assert got == want
