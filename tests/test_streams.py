"""Precomputed front-end streams: bit-parity with the per-op path."""

import pytest

from gem5_golden import gem5_traces
from repro.uarch import CycleCore, gem5_baseline, host_i9
from repro.uarch.core.streams import get_streams

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


def _stats_pair(trace, config, warm):
    with_streams = CycleCore(trace, config, warm=warm).run().as_dict()
    without = CycleCore(trace, config, warm=warm,
                        streams=False).run().as_dict()
    return with_streams, without


class TestStreamParity:
    @pytest.mark.parametrize("workload", ("ar", "ma"))
    @pytest.mark.parametrize("warm", (True, False))
    def test_gem5_baseline_bit_parity(self, workload, warm):
        trace = gem5_traces()[workload]
        a, b = _stats_pair(trace, gem5_baseline(), warm)
        diffs = [k for k in b if a[k] != b[k]]
        assert a == b, f"stream path diverges in {diffs}"

    def test_three_level_hierarchy_bit_parity(self):
        # host-i9: L3 present, LTAGE predictor — the deepest I-side
        # machinery the stream precompute must mirror.
        trace = gem5_traces()["ar"]
        a, b = _stats_pair(trace, host_i9(), True)
        assert a == b

    def test_l2_interference_bit_parity(self):
        # The shared-L2 interference clock advances per access; any
        # drift in I-side L2 access placement would desync it.
        trace = gem5_traces()["tu"]
        cfg = gem5_baseline(l2_interference_period=7)
        a, b = _stats_pair(trace, cfg, True)
        assert a == b

    def test_frequency_change_reuses_one_stream(self):
        # The ITLB penalty scales with frequency but the stream stores
        # hit/miss outcomes, so one stream serves the frequency sweep.
        trace = gem5_traces()["ar"]
        st2 = get_streams(trace, gem5_baseline(freq_ghz=2.0))
        st4 = get_streams(trace, gem5_baseline(freq_ghz=4.0))
        assert st2.itlb_miss is st4.itlb_miss
        for f in (2.0, 4.0):
            a, b = _stats_pair(trace, gem5_baseline(freq_ghz=f), True)
            assert a == b


class TestStreamMachinery:
    def test_frontend_selection(self):
        trace = gem5_traces()["ar"]
        assert CycleCore(trace, gem5_baseline()).state.streams is not None
        assert CycleCore(trace, gem5_baseline(),
                         streams=False).state.streams is None

    def test_streams_cached_on_trace_across_configs(self):
        from repro.uarch.config import CacheConfig

        trace = gem5_traces()["ar"]
        a = get_streams(trace, gem5_baseline())
        # Different L2 size: same I-side fingerprint, same stream data.
        b = get_streams(trace, gem5_baseline(
            l2=CacheConfig(512, 16, 2, uncore_ns=4.0)))
        assert a.l1i_hit is b.l1i_hit
        assert a.bp_wrong is b.bp_wrong

    def test_machinery_totals_match_live_objects(self):
        trace = gem5_traces()["ma"]
        cfg = gem5_baseline()
        live = CycleCore(trace, cfg, streams=False).run()
        streamed = CycleCore(trace, cfg).run()
        assert streamed.branches == live.branches
        assert streamed.branch_mispredicts == live.branch_mispredicts
        assert streamed.cache["l1i"] == live.cache["l1i"]


class TestStreamPersistence:
    """Stream sidecars next to the trace archive in the trace store."""

    @staticmethod
    def _fresh_trace(tmp_path, monkeypatch):
        from repro.core.runner import Runner

        monkeypatch.setenv("REPRO_TRACE_CACHE_DIR", str(tmp_path))
        trace, _ = Runner().trace_for("ar", "tiny", 4000)
        return trace

    def test_sidecar_roundtrip_bit_exact(self, tmp_path, monkeypatch):
        trace = self._fresh_trace(tmp_path, monkeypatch)
        cfg = gem5_baseline()
        want = CycleCore(trace, cfg).run().as_dict()
        assert list(tmp_path.glob("*.streams.npz")), "sidecar not saved"
        # A "new process": trace reloaded from the store, stream memos
        # gone — the sidecar alone must reproduce identical bits.
        trace2 = self._fresh_trace(tmp_path, monkeypatch)
        assert not hasattr(trace2, "_fe_final")
        got = CycleCore(trace2, cfg).run().as_dict()
        assert got == want

    def test_warm_process_skips_precompute(self, tmp_path, monkeypatch):
        from repro import telemetry

        trace = self._fresh_trace(tmp_path, monkeypatch)
        cfg = gem5_baseline()
        get_streams(trace, cfg)  # populates the sidecar
        trace2 = self._fresh_trace(tmp_path, monkeypatch)
        with telemetry.span("test-root") as root:
            st = get_streams(trace2, cfg)
        names = [s.name for s in root.children]
        assert st is not None
        assert "stream_precompute" not in names
        # ... and it really is the persisted object, memoized for the
        # rest of the process.
        assert get_streams(trace2, cfg) is st

    def test_sidecar_counted_in_store_stats(self, tmp_path, monkeypatch):
        from repro.trace.store import TraceStore

        trace = self._fresh_trace(tmp_path, monkeypatch)
        get_streams(trace, gem5_baseline())
        stats = TraceStore(root=str(tmp_path)).stats()
        assert stats["entries"] == 1
        assert stats["stream_entries"] >= 1
        assert stats["stream_bytes"] > 0

    def test_unstored_trace_never_persists(self, tmp_path):
        trace = gem5_traces()["ar"]  # built with use_disk_cache=False
        assert get_streams(trace, gem5_baseline()) is not None
        assert not list(tmp_path.glob("*.streams.npz"))

    def test_prebuilt_trace_gets_persist_stamp(self, tmp_path, monkeypatch):
        # Pool-synthesized traces reach workers via PREBUILT_TRACES,
        # reconstructed from shipped columns with no store provenance;
        # trace_for must stamp them so workers persist sidecars too.
        from repro.core.runner import PREBUILT_TRACES, Runner

        trace = self._fresh_trace(tmp_path, monkeypatch)
        if hasattr(trace, "_stream_persist"):
            del trace._stream_persist
        key = ("ar", "tiny", 4000)
        monkeypatch.setitem(PREBUILT_TRACES, key, (trace, None))
        got, _ = Runner().trace_for(*key)
        assert got is trace
        store, trace_key = got._stream_persist
        assert trace_key == store.key(*key)
        get_streams(got, gem5_baseline())
        assert list(tmp_path.glob("*.streams.npz"))

    def test_corrupt_sidecar_recomputes(self, tmp_path, monkeypatch):
        trace = self._fresh_trace(tmp_path, monkeypatch)
        cfg = gem5_baseline()
        want = CycleCore(trace, cfg).run().as_dict()
        (sidecar,) = tmp_path.glob("*.streams.npz")
        sidecar.write_bytes(b"not a zip archive")
        trace2 = self._fresh_trace(tmp_path, monkeypatch)
        got = CycleCore(trace2, cfg).run().as_dict()
        assert got == want
        # Quarantined, then rewritten by the recompute.
        assert list(tmp_path.glob("*.streams.npz.corrupt"))
        assert list(tmp_path.glob("*.streams.npz"))
