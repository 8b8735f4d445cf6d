"""Cycle-backend matrix: golden parity, capability fallback, store keys.

Both registered backends must produce bit-identical ``SimStats`` — the
contract that keeps ``REPRO_CYCLE_BACKEND`` out of the result-store
key.  The matrix pins each backend against the committed seed golden
fixtures (six gem5 workloads, warm and cold) and ``native`` against the
``python`` reference on the host-i9 L3/LTAGE config; a run ``native``
cannot represent (no streams, custom observers, missing toolchain) must
route to ``python`` with a one-line warning rather than diverge.
"""

import pytest

from gem5_golden import gem5_golden, gem5_traces
from repro.engine.jobs import JobSpec
from repro.uarch import CycleCore, gem5_baseline, host_i9, simulate
from repro.uarch.core import backends as cycle_backends
from repro.uarch.core.observers import Observer

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")

WORKLOADS = ("ar", "co", "dm", "ma", "rj", "tu")


def _require(backend):
    if not cycle_backends.get_backend(backend).available():
        pytest.skip(f"backend {backend!r} unavailable on this host")


# ----------------------------------------------------------------------
# Golden-fixture bit-parity, every backend x workload x warm/cold
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", cycle_backends.BACKEND_NAMES)
@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("mode", ("warm", "cold"))
def test_backend_matches_seed_golden(backend, workload, mode):
    _require(backend)
    trace = gem5_traces()[workload]
    stats = simulate(trace, gem5_baseline(), warm=(mode == "warm"),
                     backend=backend)
    got = stats.as_dict()
    want = gem5_golden()[workload][mode]
    mismatched = [k for k in want if got[k] != want[k]]
    assert got == want, f"{backend}/{workload}/{mode} diverges in {mismatched}"


@pytest.mark.parametrize("backend", ("native",))
@pytest.mark.parametrize("workload", ("ar", "ma"))
@pytest.mark.parametrize("warm", (True, False))
def test_backend_matches_reference_on_host_i9(backend, workload, warm):
    # L3 present, LTAGE predictor: the deepest machinery the callback/
    # stream boundary must keep bit-exact.
    _require(backend)
    trace = gem5_traces()[workload]
    ref = simulate(trace, host_i9(), warm=warm, backend="python").as_dict()
    got = simulate(trace, host_i9(), warm=warm, backend=backend).as_dict()
    diffs = [k for k in ref if got[k] != ref[k]]
    assert got == ref, f"{backend} diverges on host-i9 in {diffs}"


@pytest.mark.parametrize("backend", ("native",))
def test_non_stream_run_falls_back_bit_exactly(backend):
    # streams=False removes the representation the compiled kernel
    # needs; the run must still match golden, via the python fallback.
    _require(backend)
    trace = gem5_traces()["ar"]
    core = CycleCore(trace, gem5_baseline(), streams=False,
                     backend=backend)
    assert core.backend == "python"
    assert core.backend_fallback is not None
    got = core.run().as_dict()
    assert got == gem5_golden()["ar"]["warm"]


# ----------------------------------------------------------------------
# Capability fallback
# ----------------------------------------------------------------------
class TestFallback:
    def test_custom_observers_route_to_python(self):
        _require("native")
        from repro.uarch.core.observers import Observer

        class Probe(Observer):
            def on_cycle_end(self, s):
                pass

        trace = gem5_traces()["ar"]
        core = CycleCore(trace, gem5_baseline(), observers=[Probe()],
                         backend="native")
        assert core.backend == "python"
        assert "observers" in core.backend_fallback

    def test_fallback_warns_once(self, monkeypatch, capsys):
        _require("native")
        from repro import env as env_mod

        monkeypatch.setattr(env_mod, "_WARNED", set())
        _, name, reason = cycle_backends.select_backend(
            "native", streams=None, default_observers=True)
        assert name == "python"
        assert reason is not None
        err = capsys.readouterr().err
        assert "falling back to python" in err
        # Same condition again: warn_once stays quiet.
        cycle_backends.select_backend("native", streams=None,
                                      default_observers=True)
        assert "falling back" not in capsys.readouterr().err

    def test_invalid_env_value_uses_default(self, monkeypatch, capsys):
        # "numpy" named a backend that has since been deleted: a stale
        # setting is just another invalid value.
        from repro import env as env_mod

        trace = gem5_traces()["ar"]
        for value in ("fortran", "numpy"):
            monkeypatch.setattr(env_mod, "_WARNED", set())
            monkeypatch.setenv(cycle_backends.BACKEND_ENV, value)
            assert cycle_backends.backend_from_env() == \
                cycle_backends.DEFAULT_BACKEND
            core = CycleCore(trace, gem5_baseline())
            assert (core.backend, core.backend_fallback) == ("python",
                                                             None)
            err = capsys.readouterr().err
            assert err.count(f"invalid {cycle_backends.BACKEND_ENV}="
                             f"{value!r}") == 1, err

    def test_unknown_backend_name_rejected(self):
        with pytest.raises(ValueError, match="unknown cycle backend"):
            cycle_backends.get_backend("fortran")


# ----------------------------------------------------------------------
# Selection plumbing
# ----------------------------------------------------------------------
class TestSelection:
    def test_env_knob_selects_backend(self, monkeypatch):
        # python is never the default where a compiler exists, so only
        # the knob can have picked it.
        monkeypatch.setenv(cycle_backends.BACKEND_ENV, "python")
        trace = gem5_traces()["ar"]
        core = CycleCore(trace, gem5_baseline())
        assert core.backend == "python"
        assert core.backend_fallback is None

    def test_python_always_available(self):
        assert "python" in cycle_backends.available_backends()

    def test_best_backend_is_available(self):
        best = cycle_backends.best_backend()
        assert best in cycle_backends.available_backends()

    def test_backend_never_in_store_key(self, monkeypatch):
        monkeypatch.delenv(cycle_backends.BACKEND_ENV, raising=False)
        base = JobSpec("ar", gem5_baseline()).key()
        for name in cycle_backends.BACKEND_NAMES:
            monkeypatch.setenv(cycle_backends.BACKEND_ENV, name)
            assert JobSpec("ar", gem5_baseline()).key() == base

    def test_simulate_records_backend_span(self):
        from repro import telemetry

        trace = gem5_traces()["ar"]
        with telemetry.span("test-root") as root:
            simulate(trace, gem5_baseline(), backend="python")
        spans = [s for s in root.children if s.name == "simulate:cycle"]
        assert spans and spans[0].attrs.get("backend") == "python"


# ----------------------------------------------------------------------
# The default backend and its quiet fallback
# ----------------------------------------------------------------------
def _fallbacks(reason):
    from repro import telemetry

    return telemetry.counter("repro_cycle_backend_fallbacks_total",
                             reason=reason).get()


class _Probe(Observer):
    """A custom observer: needs the per-cycle hooks only python has."""


class TestDefaultBackend:
    def test_default_is_the_best_backend(self, monkeypatch):
        monkeypatch.delenv(cycle_backends.BACKEND_ENV, raising=False)
        best = cycle_backends.best_backend()
        assert cycle_backends.backend_from_env() == best
        assert cycle_backends.requested_backend() == (best, False)
        if cycle_backends.get_backend("native").available():
            assert best == "native"
        # The always-available fallback target keeps its name.
        assert cycle_backends.DEFAULT_BACKEND == "python"

    def test_no_toolchain_degrades_to_python_silently(self, monkeypatch,
                                                      capsys):
        from repro import env as env_mod
        from repro.uarch.core.backends import native

        monkeypatch.delenv(cycle_backends.BACKEND_ENV, raising=False)
        monkeypatch.setattr(env_mod, "_WARNED", set())
        monkeypatch.setattr(native, "_lib", None)
        monkeypatch.setattr(native, "_build_error",
                            "no C compiler (cc/gcc/clang) on PATH")
        assert cycle_backends.best_backend() == "python"
        core = CycleCore(gem5_traces()["ar"], gem5_baseline())
        assert core.backend == "python"
        assert core.backend_fallback is None
        assert core.run().as_dict() == gem5_golden()["ar"]["warm"]
        assert capsys.readouterr().err == ""

    def test_implicit_fallback_is_quiet_and_recorded(self, monkeypatch,
                                                     capsys):
        _require("native")
        from repro import env as env_mod
        from repro import telemetry

        monkeypatch.delenv(cycle_backends.BACKEND_ENV, raising=False)
        monkeypatch.setattr(env_mod, "_WARNED", set())
        before = _fallbacks("custom-observers")
        with telemetry.span("test-root") as root:
            simulate(gem5_traces()["ar"], gem5_baseline(),
                     observers=[_Probe()])
        sp = next(s for s in root.children if s.name == "simulate:cycle")
        assert sp.attrs["backend"] == "python"
        assert sp.attrs["backend_fallback"] == "custom-observers"
        assert _fallbacks("custom-observers") == before + 1
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("via", ("argument", "env"))
    def test_explicit_request_still_warns(self, via, monkeypatch, capsys):
        _require("native")
        from repro import env as env_mod

        monkeypatch.setattr(env_mod, "_WARNED", set())
        before = _fallbacks("no-streams")
        if via == "env":
            monkeypatch.setenv(cycle_backends.BACKEND_ENV, "native")
            core = CycleCore(gem5_traces()["ar"], gem5_baseline(),
                             streams=False)
        else:
            core = CycleCore(gem5_traces()["ar"], gem5_baseline(),
                             streams=False, backend="native")
        assert (core.backend, core.backend_fallback) == ("python",
                                                         "no-streams")
        assert _fallbacks("no-streams") == before + 1
        assert "falling back to python" in capsys.readouterr().err

    def test_hand_stepped_state_resumes_on_python(self, monkeypatch):
        _require("native")
        from repro.uarch.core.backends.python_ref import _run_fused

        monkeypatch.delenv(cycle_backends.BACKEND_ENV, raising=False)
        core = CycleCore(gem5_traces()["ar"], gem5_baseline())
        assert core.backend == "native"
        s = core.state
        limit, s.limit = s.limit, 500
        _run_fused(s, [ob.on_dispatch for ob in core.observers],
                   [ob.on_cycle_end for ob in core.observers])
        s.limit = limit
        before = _fallbacks("mid-flight")
        stats = core.run()
        assert (core.backend, core.backend_fallback) == ("python",
                                                         "mid-flight")
        assert _fallbacks("mid-flight") == before + 1
        assert stats.as_dict() == gem5_golden()["ar"]["warm"]

    def test_native_run_leaves_no_per_op_lists(self, monkeypatch):
        _require("native")
        monkeypatch.delenv(cycle_backends.BACKEND_ENV, raising=False)
        core = CycleCore(gem5_traces()["ar"], gem5_baseline())
        core.run()
        s = core.state
        for name in ("kinds", "addrs", "pcs", "dep1s", "dep2s", "funcs"):
            assert name not in vars(s), name
        assert not isinstance(s.completion, list)
