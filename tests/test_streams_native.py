"""Differential tests of the native front-end stream precompute.

The Python passes in :mod:`repro.uarch.core.streams` (and the predictor
classes) are the reference: ``_streams.c`` must give the same per-op
streams, counters, warm L2 events and final L1D sets bit for bit — for
each predictor on generated branch streams, over generated cache and
ITLB geometry, and on the six gem5 traces.  The Hypothesis budgets are
small and seeded; raise ``max_examples`` locally to fuzz harder.
"""

import zipfile
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings, strategies as st

from repro import nativelib, telemetry
from repro.trace.ops import BRANCH, INT_ALU, LOAD, STORE, Trace
from repro.uarch import CacheConfig, gem5_baseline, host_i9
from repro.uarch.branch import (
    LTAGE, PREDICTORS, LocalBP, PerceptronBP, TournamentBP, make_predictor,
)
from repro.uarch.core import streams
from repro.uarch.core import streams_native as native

needs_native = pytest.mark.skipif(
    native.load_kernel() is None,
    reason=f"native stream precompute unavailable: {native._build_error}")

_FIELDS = ("l1i_hit", "pf_l2", "itlb_miss", "bp_wrong", "l1i_accesses",
           "l1i_misses", "bp_lookups", "bp_mispredicts", "warm")


def _force(monkeypatch, path):
    """Run every stream precompute of this test on *path*."""
    if path == "python":
        monkeypatch.setattr(native, "_lib", None)
        monkeypatch.setattr(native, "_build_error", "forced off")
    elif native.load_kernel() is None:
        pytest.skip(f"native streams unavailable: {native._build_error}")
    assert streams.stream_path() == path


# ----------------------------------------------------------------------
# Predictors alone
# ----------------------------------------------------------------------
def _python_predictions(bp, pcs, takens):
    out = []
    for pc, taken in zip(pcs, takens):
        out.append(int(bool(bp.predict(pc))))
        bp.update(pc, bool(taken))
    return out


def _native_predictions(bp, pcs, takens):
    desc = native.predictor_desc(bp)
    assert desc is not None
    pcs = np.asarray(pcs, dtype=np.int64)
    uniq, ids = np.unique(pcs >> 2, return_inverse=True)
    ids = np.ascontiguousarray(ids, dtype=np.int64)
    desc[native.B_NIDS] = uniq.size
    takens = np.asarray(takens, dtype=np.uint8)
    preds = np.zeros(pcs.size, dtype=np.uint8)
    rc = native.load_kernel().bp_run(
        desc.ctypes.data, pcs.ctypes.data, ids.ctypes.data,
        takens.ctypes.data, pcs.size, preds.ctypes.data)
    assert rc == 0
    return preds.tolist()


def _site_outcomes(rng, pattern, count):
    """*count* outcomes of one static branch following *pattern*."""
    if pattern == "biased":
        return rng.random(count) < rng.choice((0.03, 0.5, 0.97))
    if pattern == "alternating":
        return np.arange(count) % 2 == 0
    if pattern == "loop":  # taken trip-1 times, then falls through
        trip = int(rng.integers(2, 40))
        return np.arange(count) % trip != trip - 1
    return rng.random(count) < 0.5


@st.composite
def branch_streams(draw):
    """``(pcs, takens)``: 65-1200 dynamic branches over a few static
    sites, each biased, alternating, a loop or random.  Sites may alias
    (PCs a table stride apart) and may sit at large or negative
    addresses (Python's floored ``%`` must hold there too)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(65, 1200))
    nsites = draw(st.sampled_from((1, 2, 5, 17, 120)))
    base = draw(st.sampled_from((0x400000, 1 << 40, -(1 << 20))))
    stride = draw(st.sampled_from((4, 4 * 512, 4 * 1024, 4 * 4096)))
    site_pcs = base + rng.integers(0, 64, nsites) * 4 \
        + rng.integers(0, 3, nsites) * stride
    order = rng.integers(0, nsites, n)
    if draw(st.booleans()):  # nested-loop-like: runs of one site
        order = np.repeat(order[: n // 8 + 1], 8)[:n]
    takens = np.zeros(n, dtype=bool)
    for s in range(nsites):
        hit = order == s
        pattern = draw(st.sampled_from(
            ("biased", "alternating", "loop", "random")))
        takens[hit] = _site_outcomes(rng, pattern, int(hit.sum()))
    return site_pcs[order].tolist(), takens.astype(int).tolist()


@st.composite
def predictors(draw):
    """A zero-argument factory of fresh predictors: a default one, or
    one of the four classes with generated table sizes, history lengths
    and bounds."""
    name = draw(st.sampled_from(sorted(PREDICTORS)))
    if draw(st.booleans()):
        return partial(make_predictor, name)
    if name == "local":
        return partial(LocalBP, history_bits=draw(st.integers(1, 12)),
                       counter_bits=draw(st.integers(1, 3)),
                       table_size=draw(st.sampled_from((64, 100, 2048))))
    if name == "tournament":
        return partial(TournamentBP, global_bits=draw(st.integers(2, 12)),
                       table_size=draw(st.sampled_from((256, 4096))))
    if name == "ltage":
        hists = sorted(draw(st.lists(
            st.sampled_from((2, 4, 8, 16, 32, 63, 64, 80)),
            min_size=1, max_size=6, unique=True)))
        return partial(LTAGE,
                       table_size=draw(st.sampled_from((64, 256, 1024))),
                       hist_lengths=tuple(hists))
    return partial(PerceptronBP,
                   table_size=draw(st.sampled_from((16, 512))),
                   history_len=draw(st.sampled_from((1, 8, 24, 40))),
                   weight_max=draw(st.sampled_from((1, 3, 63))))


@needs_native
@seed(1414)
@settings(max_examples=80, deadline=None)
@given(make=predictors(), stream=branch_streams())
def test_native_predictor_matches_class(make, stream):
    pcs, takens = stream
    want = _python_predictions(make(), pcs, takens)
    assert _native_predictions(make(), pcs, takens) == want


def _loop_stream(n, trip=7, sites=3):
    pcs = [0x1000 + 4 * (i % sites) for i in range(n)]
    takens = [int((i // sites) % trip != trip - 1) for i in range(n)]
    return pcs, takens


@needs_native
def test_ltage_uses_the_full_64_bit_history():
    # A long mostly-taken stream fills all 64 history bits, and only the
    # 64-bit table can tell the rare not-taken outcomes apart.
    rng = np.random.default_rng(3)
    n = 4000
    pcs = (0x2000 + 4 * rng.integers(0, 4, n)).tolist()
    takens = (np.arange(n) % 70 != 69).astype(int).tolist()
    bp = LTAGE()
    reached = False
    want = []
    for pc, taken in zip(pcs, takens):
        want.append(int(bp.predict(pc)))
        bp.update(pc, bool(taken))
        reached |= bp.ghist >> 63 == 1
    assert reached
    assert any(bp.tables[-1].tags), "the 64-bit table never allocated"
    assert _native_predictions(LTAGE(), pcs, takens) == want


@needs_native
def test_perceptron_weights_saturate_at_both_bounds():
    # Site B always does the opposite of site A just before it (a
    # negative weight on the newest history bit); site C is always
    # taken (a positive bias weight).
    rng = np.random.default_rng(4)
    pcs, takens = [], []
    for _ in range(1000):
        t = int(rng.random() < 0.5)
        pcs += [0x1000, 0x1004, 0x1008]
        takens += [t, 1 - t, 1]
    bp = PerceptronBP(table_size=4, history_len=12, weight_max=3)
    want = _python_predictions(bp, pcs, takens)
    weights = {w for row in bp._weights for w in row}
    assert {3, -4} <= weights  # [-weight_max - 1, weight_max]
    fresh = PerceptronBP(table_size=4, history_len=12, weight_max=3)
    assert _native_predictions(fresh, pcs, takens) == want


@needs_native
def test_tournament_chooser_flips_both_ways():
    # Phase 1 favours the local predictor (per-site loop patterns),
    # phase 2 the global one (a site whose outcome copies the previous
    # branch's), so chooser entries cross the threshold both ways.
    pcs, takens = _loop_stream(1500, trip=4, sites=1)
    rng = np.random.default_rng(5)
    for _ in range(1500):
        t = int(rng.random() < 0.5)
        pcs += [0x3000, 0x3004]
        takens += [t, t]
    bp = TournamentBP(global_bits=4)
    flips = {"up": 0, "down": 0}
    want = []
    for pc, taken in zip(pcs, takens):
        gi = bp._gindex(pc)
        before = bp._chooser[gi] >= 2
        want.append(int(bp.predict(pc)))
        bp.update(pc, bool(taken))
        after = bp._chooser[gi] >= 2
        if after != before:
            flips["up" if after else "down"] += 1
    assert flips["up"] and flips["down"], flips
    assert _native_predictions(TournamentBP(global_bits=4), pcs,
                               takens) == want


class _CustomBP(LocalBP):
    """A registered predictor the C port does not know."""


def test_unsupported_predictors_stay_on_python(monkeypatch):
    assert native.predictor_desc(_CustomBP()) is None
    assert native.predictor_desc(LTAGE(table_size=1)) is None
    assert native.predictor_desc(
        LTAGE(hist_lengths=tuple(range(1, 18)))) is None
    assert native.predictor_desc(
        PerceptronBP(history_len=0)) is None
    for name in PREDICTORS:
        assert native.predictor_desc(make_predictor(name)) is not None
    # A config naming one runs the reference I-side pass, counted so.
    monkeypatch.setitem(PREDICTORS, "custom", _CustomBP)
    trace = Trace(
        [BRANCH, INT_ALU, BRANCH], [0, 0, 0], [0x40, 0x44, 0x40],
        [1, 0, 0], [0, 0, 0], [0, 0, 0], [0, 0, 0])
    config = gem5_baseline(branch_predictor="custom")
    before = _count("i", "python")
    st, _ = streams._precompute("i", trace, config, True)
    assert _count("i", "python") == before + 1
    want, _ = streams._compute_iside(trace, config, True)
    assert st.bp_wrong == want.bp_wrong


# ----------------------------------------------------------------------
# Whole passes
# ----------------------------------------------------------------------
def _assert_iside_equal(trace, config, warm):
    want_st, want_ev = streams._compute_iside(trace, config, warm)
    desc = native.predictor_desc(make_predictor(config.branch_predictor))
    got_st, got_ev = native.iside_pass(
        native.load_kernel(), trace, config, warm, desc)
    for name in _FIELDS:
        assert getattr(got_st, name) == getattr(want_st, name), name
    assert type(got_st.l1i_hit) is bytearray
    assert got_ev == want_ev


def _assert_dside_equal(trace, config):
    want = streams._compute_dside(trace, config)
    got = native.dside_pass(native.load_kernel(), trace, config)
    assert got == want


@st.composite
def geometry_configs(draw):
    """Generated L1I size/assoc/line, ITLB entries, L1D geometry and
    predictor (only power-of-two set counts are valid caches)."""
    try:
        l1i = CacheConfig(draw(st.sampled_from((1, 2, 4, 32))),
                          draw(st.sampled_from((1, 2, 4, 8, 16))), 1,
                          line=draw(st.sampled_from((16, 32, 64, 128))))
        l1d = CacheConfig(draw(st.sampled_from((1, 2, 8, 48))),
                          draw(st.sampled_from((1, 3, 4, 12))), 4,
                          line=draw(st.sampled_from((32, 64))))
    except ValueError:
        assume(False)
    return gem5_baseline(
        l1i=l1i, l1d=l1d,
        itlb_entries=draw(st.sampled_from((1, 2, 8, 64))),
        branch_predictor=draw(st.sampled_from(sorted(PREDICTORS))))


@st.composite
def synthetic_traces(draw):
    """A trace whose PCs walk a code footprint of ``code_kb`` (with
    jumps across pages) and whose loads/stores reuse ``lines`` lines."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(0, 3000))
    code_kb = draw(st.sampled_from((1, 16, 256)))
    lines = draw(st.sampled_from((8, 256, 8192)))
    kinds = rng.choice(np.array([INT_ALU, INT_ALU, LOAD, STORE, BRANCH],
                                dtype=np.int8), n)
    pc = 0x400000 + (np.cumsum(rng.integers(1, 6, n)) * 4
                     + rng.integers(0, 2, n) * rng.integers(
                         0, code_kb * 256, n) * 4) % (code_kb * 1024)
    addr = np.where((kinds == LOAD) | (kinds == STORE),
                    0x10000000 + rng.integers(0, lines * 64, n), 0)
    taken = rng.random(n) < draw(st.sampled_from((0.1, 0.5, 0.9)))
    zeros = np.zeros(n, dtype=np.int32)
    return Trace(kinds, addr, pc, taken, zeros, zeros, zeros)


@needs_native
@seed(1415)
@settings(max_examples=60, deadline=None)
@given(config=geometry_configs(), trace=synthetic_traces(),
       warm=st.booleans())
def test_native_passes_match_on_generated_geometry(config, trace, warm):
    _assert_iside_equal(trace, config, warm)
    _assert_dside_equal(trace, config)


@needs_native
@pytest.mark.parametrize("warm", (True, False))
@pytest.mark.parametrize("predictor", sorted(PREDICTORS))
def test_native_passes_match_on_gem5_traces(predictor, warm):
    from gem5_golden import gem5_traces

    config = gem5_baseline(branch_predictor=predictor)
    for trace in gem5_traces().values():
        _assert_iside_equal(trace, config, warm)


@needs_native
def test_native_passes_match_on_gem5_traces_host_i9():
    from gem5_golden import gem5_traces

    for config in (gem5_baseline(), host_i9()):
        for trace in gem5_traces().values():
            _assert_iside_equal(trace, config, True)
            _assert_dside_equal(trace, config)


# ----------------------------------------------------------------------
# Sidecars, fallback and telemetry
# ----------------------------------------------------------------------
def _stored_trace(tmp_path, monkeypatch):
    from repro.core.runner import Runner

    monkeypatch.setenv("REPRO_TRACE_CACHE_DIR", str(tmp_path))
    trace, _ = Runner().trace_for("ar", "tiny", 4000)
    return trace


def _sidecar(tmp_path):
    """Every member of the one sidecar under *tmp_path*: the meta JSON
    and each ``.npy`` array, as raw bytes."""
    (path,) = tmp_path.glob("*.streams.npz")
    with zipfile.ZipFile(path) as archive:
        return {name: archive.read(name) for name in archive.namelist()}


@needs_native
@pytest.mark.parametrize("warm", (True, False))
def test_sidecars_are_byte_identical_across_paths(tmp_path, monkeypatch,
                                                  warm):
    config = gem5_baseline(branch_predictor="perceptron")
    sidecars = {}
    for path in ("native", "python"):
        with monkeypatch.context() as m:
            _force(m, path)
            root = tmp_path / path
            streams.get_streams(_stored_trace(root, m), config, warm=warm)
            sidecars[path] = _sidecar(root)
    assert sidecars["native"] == sidecars["python"]


def _count(side, path):
    return telemetry.counter("repro_stream_precompute_total",
                             side=side, path=path).get()


@needs_native
def test_build_error_falls_back_to_python(monkeypatch):
    from gem5_golden import gem5_traces

    config = gem5_baseline(branch_predictor="ltage")
    trace = gem5_traces()["co"]
    want = (native.iside_pass(
        native.load_kernel(), trace, config, True,
        native.predictor_desc(make_predictor("ltage"))),
        native.dside_pass(native.load_kernel(), trace, config))

    def no_compiler(*args, **kwargs):
        raise nativelib.BuildError("no C compiler (cc/gcc/clang) on PATH")

    monkeypatch.setattr(native, "_lib", None)
    monkeypatch.setattr(native, "_build_error", None)
    monkeypatch.setattr(nativelib, "load", no_compiler)
    assert streams.stream_path() == "python"
    assert "no C compiler" in native._build_error
    before = _count("i", "python"), _count("d", "python")
    with telemetry.span("test-root") as root:
        got = (streams._precompute("i", trace, config, True),
               streams._precompute("d", trace, config))
    assert (_count("i", "python"), _count("d", "python")) == (
        before[0] + 1, before[1] + 1)
    assert [(s.attrs["side"], s.attrs["path"]) for s in root.children] == [
        ("i", "python"), ("d", "python")]
    for name in _FIELDS:
        assert getattr(got[0][0], name) == getattr(want[0][0], name)
    assert got[0][1] == want[0][1]
    assert got[1] == want[1]


def test_each_computation_is_counted_once(tmp_path, monkeypatch):
    path = streams.stream_path()  # native, or python without a compiler
    trace = _stored_trace(tmp_path, monkeypatch)
    config = gem5_baseline(branch_predictor="local")
    before = _count("i", path), _count("d", path)
    with telemetry.span("test-root") as root:
        st = streams.get_streams(trace, config)
        assert streams.get_streams(trace, config) is st  # memo hit
    assert (_count("i", path), _count("d", path)) == (
        before[0] + 1, before[1] + 1)
    assert {(s.attrs["side"], s.attrs["path"]) for s in root.children
            if s.name == "stream_precompute"} == {("i", path), ("d", path)}


def _two_way_merge(iside_events, dside_events):
    """The merge by definition: walk both program-order lists, I-side
    first at equal positions."""
    ipos, iaddr, ipf = iside_events
    dpos, daddr = dside_events
    addrs, pfs = [], []
    ii = di = 0
    while ii < len(ipos) or di < len(dpos):
        if di >= len(dpos) or (ii < len(ipos) and ipos[ii] <= dpos[di]):
            addrs.append(iaddr[ii])
            pfs.append(ipf[ii])
            ii += 1
        else:
            addrs.append(daddr[di])
            pfs.append(0)
            di += 1
    return addrs, pfs


@seed(1416)
@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 1 << 40),
                          st.integers(0, 1)), max_size=60),
       st.lists(st.tuples(st.integers(0, 30), st.integers(0, 1 << 40)),
                max_size=60))
def test_warm_event_merge_is_the_program_order_merge(ievents, devents):
    # Sorted positions with ties inside each side and across sides.
    ievents.sort(key=lambda e: e[0])
    devents.sort(key=lambda e: e[0])
    iside = tuple(list(col) for col in zip(*ievents)) or ([], [], [])
    dside = tuple(list(col) for col in zip(*devents)) or ([], [])
    got = streams._merge_warm_events(iside, dside)
    assert got == _two_way_merge(iside, dside)
    assert all(type(v) is int for col in got for v in col)
