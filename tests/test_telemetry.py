"""Telemetry: metrics registry, spans, journals, report, /metrics."""

import io
import json
import multiprocessing
import os
import threading
import urllib.request

import pytest

from repro import telemetry
from repro.__main__ import main
from repro.core.runner import Runner
from repro.core.sweeps import l2_sweep
from repro.engine import (JobFailure, Progress, ResultStore, expand_grid,
                          run_jobs)
from repro.telemetry.metrics import MetricsRegistry
from repro.uarch.config import gem5_baseline

_WORKLOADS = ("ar", "co")
_FAST = dict(scale="tiny", budget=4000)


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
def test_counter_identity_and_labels():
    r = MetricsRegistry()
    a = r.counter("x_total", help="events", store="a")
    a.inc()
    a.inc(2)
    assert r.counter("x_total", store="a") is a
    assert a.get() == 3
    b = r.counter("x_total", store="b")
    assert b is not a and b.get() == 0


def test_metric_type_conflict_raises():
    r = MetricsRegistry()
    r.counter("m", side="x")
    with pytest.raises(TypeError):
        r.gauge("m", side="x")


def test_gauge_set_callback_and_scrape_safety():
    r = MetricsRegistry()
    g = r.gauge("depth")
    g.set(4)
    g.inc()
    assert g.get() == 5
    live = r.gauge("live", fn=lambda: 7)
    assert live.get() == 7
    # A later caller may rebind the callback (fresh object, same series).
    r.gauge("live", fn=lambda: 9)
    assert live.get() == 9

    def boom():
        raise RuntimeError("scrape must survive")

    assert r.gauge("bad", fn=boom).get() == 0


def test_histogram_buckets_and_snapshot():
    r = MetricsRegistry()
    h = r.histogram("h_seconds", buckets=(0.1, 1.0))
    for v in (0.05, 0.5, 5.0):
        h.observe(v)
    snap = h.get()
    assert snap["buckets"] == {0.1: 1, 1.0: 2}
    assert snap["count"] == 3
    assert snap["sum"] == pytest.approx(5.55)


def test_render_prometheus_text():
    r = MetricsRegistry()
    r.counter("req_total", help="requests", verb="get").inc(5)
    r.gauge("queue_depth").set(2)
    r.histogram("lat_seconds", buckets=(0.5,)).observe(0.2)
    r.counter("esc_total", path='quo"te').inc()
    text = r.render_prometheus()
    assert "# HELP req_total requests" in text
    assert "# TYPE req_total counter" in text
    assert 'req_total{verb="get"} 5' in text
    assert "# TYPE queue_depth gauge" in text
    assert "queue_depth 2" in text
    assert 'lat_seconds_bucket{le="0.5"} 1' in text
    assert 'lat_seconds_bucket{le="+Inf"} 1' in text
    assert "lat_seconds_count 1" in text
    assert 'esc_total{path="quo\\"te"} 1' in text
    r.reset()
    assert r.snapshot() == {}


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
def test_span_nesting_builds_tree(monkeypatch):
    monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
    with telemetry.span("job", workload="ar") as root:
        with telemetry.span("a"):
            with telemetry.span("b"):
                pass
        with telemetry.span("c"):
            pass
    assert [c.name for c in root.children] == ["a", "c"]
    assert root.children[0].children[0].name == "b"
    assert root.seconds >= sum(c.seconds for c in root.children)
    d = root.as_dict()
    assert d["name"] == "job" and d["attrs"] == {"workload": "ar"}
    assert [c["name"] for c in d["children"]] == ["a", "c"]
    assert telemetry.current_span() is None


def test_span_kill_switch(monkeypatch):
    monkeypatch.setenv("REPRO_TELEMETRY", "0")
    assert not telemetry.enabled()
    with telemetry.span("x") as sp:
        assert sp is None


def test_record_tree_feeds_phase_histograms():
    tree = {"name": "unit-test-phase", "seconds": 0.5,
            "children": [{"name": "unit-test-child", "seconds": 0.25}]}
    telemetry.record_tree(tree)
    telemetry.record_tree(None)  # telemetry-off job: no-op
    h = telemetry.REGISTRY.histogram("repro_span_seconds",
                                     phase="unit-test-phase")
    assert h.count == 1 and h.sum == pytest.approx(0.5)
    child = telemetry.REGISTRY.histogram("repro_span_seconds",
                                         phase="unit-test-child")
    assert child.count == 1


# ----------------------------------------------------------------------
# Progress finish semantics
# ----------------------------------------------------------------------
def test_progress_finish_flushes_pending_line():
    buf = io.StringIO()
    p = Progress(total=0, label="s", stream=buf, min_interval=3600)
    p.step("first")           # first emit always goes through
    p.step("second")          # rate-limited into _pending
    assert "[2/?]" not in buf.getvalue()
    p.finish()
    out = buf.getvalue()
    assert "[1/?] first" in out and "[2/?] second" in out
    p.finish()                # idempotent
    assert buf.getvalue() == out


def test_progress_finish_terminates_cr_line():
    class _Tty(io.StringIO):
        def isatty(self):
            return True

    buf = _Tty()
    p = Progress(total=0, label="s", stream=buf)
    p.step("only")
    assert not buf.getvalue().endswith("\n")
    p.finish()
    assert buf.getvalue().endswith("\n")
    p.finish()
    assert buf.getvalue().count("\n") == 1

    # Known totals self-terminate on the final step; finish adds nothing.
    buf2 = _Tty()
    p2 = Progress(total=2, stream=buf2)
    p2.step("a")
    p2.step("b")
    p2.finish()
    assert buf2.getvalue().endswith("\n")
    assert buf2.getvalue().count("\n") == 1


# ----------------------------------------------------------------------
# Journals
# ----------------------------------------------------------------------
def _journal_env(monkeypatch, directory):
    monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
    monkeypatch.setenv("REPRO_TELEMETRY_DIR", str(directory))


def test_scope_writes_complete_journal(tmp_path, monkeypatch):
    _journal_env(monkeypatch, tmp_path)
    with telemetry.scope("unit", flavor="test") as j:
        assert j is not None
        j.job("ar", "512", "cycle", False, 0.5,
              spans={"name": "job", "seconds": 0.5})
        j.job("co", "512", "cycle", True, 0.001)
        j.batch(1.0, workers=2, store={"root": "/s", "hits": 1, "misses": 1})
        path = j.path
    records = telemetry.read_journal(path)
    assert [r["type"] for r in records] == ["run", "job", "job", "batch",
                                            "summary"]
    assert records[0]["label"] == "unit" and records[0]["flavor"] == "test"
    assert records[1]["spans"]["name"] == "job"
    summary = records[-1]
    assert summary["status"] == "ok"
    assert summary["jobs"] == 2 and summary["hits"] == 1
    assert summary["coverage"] == pytest.approx(0.501, abs=1e-3)
    assert summary["stores"] == [{"root": "/s", "hits": 1, "misses": 1}]


def test_scope_nesting_reuses_active_journal(tmp_path, monkeypatch):
    _journal_env(monkeypatch, tmp_path)
    with telemetry.scope("outer") as outer:
        with telemetry.scope("inner") as inner:
            assert inner is outer
        assert not outer.closed  # inner exit must not close the file
    assert outer.closed
    assert len(list(tmp_path.glob("*.jsonl"))) == 1


def test_scope_marks_error_status(tmp_path, monkeypatch):
    _journal_env(monkeypatch, tmp_path)
    with pytest.raises(RuntimeError):
        with telemetry.scope("boom") as j:
            path = j.path
            raise RuntimeError("crash")
    records = telemetry.read_journal(path)
    assert records[-1]["type"] == "summary"
    assert records[-1]["status"] == "error"


def test_scope_disabled_modes(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_TELEMETRY_DIR", raising=False)
    monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
    with telemetry.scope("no-dir") as j:
        assert j is None
    monkeypatch.setenv("REPRO_TELEMETRY_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_TELEMETRY", "0")
    with telemetry.scope("killed") as j:
        assert j is None
    assert list(tmp_path.glob("*.jsonl")) == []


def test_read_journal_skips_torn_line(tmp_path):
    path = tmp_path / "torn.jsonl"
    path.write_text('{"type": "run", "label": "x"}\n'
                    '{"type": "job", "worklo')  # killed mid-write
    records = telemetry.read_journal(str(path))
    assert len(records) == 1 and records[0]["type"] == "run"


def test_latest_journal_picks_newest(tmp_path):
    old = tmp_path / "a.jsonl"
    new = tmp_path / "b.jsonl"
    old.write_text("{}\n")
    new.write_text("{}\n")
    os.utime(old, (1, 1))
    assert telemetry.latest_journal(str(tmp_path)) == str(new)
    assert telemetry.latest_journal(str(tmp_path / "missing")) is None


# ----------------------------------------------------------------------
# run_jobs journaling under both start methods
# ----------------------------------------------------------------------
@pytest.mark.parametrize("method", ["fork", "spawn"])
def test_run_jobs_journals_under_start_method(tmp_path, monkeypatch, method):
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"{method} start method unavailable")
    jdir = tmp_path / "journals"
    _journal_env(monkeypatch, jdir)
    monkeypatch.setattr("repro.engine.pool._mp_context",
                        lambda: multiprocessing.get_context(method))
    jobs = expand_grid(_WORKLOADS, [(2.0, gem5_baseline(freq_ghz=2.0))],
                       **_FAST)
    run_jobs(jobs, workers=2, runner=Runner(cache_dir=tmp_path / "cache"))

    records = telemetry.read_journal(telemetry.latest_journal(str(jdir)))
    assert records[0]["type"] == "run"
    job_records = [r for r in records if r["type"] == "job"]
    assert len(job_records) == len(jobs)
    for r in job_records:
        # The span tree recorded in the worker travelled back intact.
        assert r["cached"] is False
        assert r["spans"]["name"] == "job"
        assert r["seconds"] > 0
    batch = next(r for r in records if r["type"] == "batch")
    assert batch["workers"] == 2
    assert batch["store"]["misses"] == len(jobs)
    summary = records[-1]
    assert summary["type"] == "summary" and summary["status"] == "ok"
    assert summary["jobs"] == len(jobs) and summary["runs"] == len(jobs)


def test_journal_survives_worker_failure(tmp_path, monkeypatch):
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("fork start method unavailable")
    jdir = tmp_path / "journals"
    _journal_env(monkeypatch, jdir)
    import repro.uarch as uarch

    def boom(trace, config, model="cycle", **kwargs):
        raise RuntimeError("injected worker failure")

    # Forked workers inherit the patched module, so every attempt of
    # every job raises in the child — the supervised pool retries each
    # job, then quarantines it, and the journal records the whole
    # story while still terminating and parsing.
    monkeypatch.setattr(uarch, "simulate", boom)
    jobs = expand_grid(_WORKLOADS, [(2.0, gem5_baseline(freq_ghz=2.0))],
                       **_FAST)
    results = run_jobs(jobs, workers=2,
                       runner=Runner(cache_dir=tmp_path / "c"))
    assert len(results) == len(jobs)
    for failure in results:
        assert isinstance(failure, JobFailure)
        assert failure.error_type == "RuntimeError"

    records = telemetry.read_journal(telemetry.latest_journal(str(jdir)))
    assert records[0]["type"] == "run"
    assert records[-1]["type"] == "summary"
    assert records[-1]["status"] == "ok"
    assert records[-1]["failures"] == len(jobs)
    assert records[-1]["retries"] > 0
    failure_records = [r for r in records if r["type"] == "failure"]
    assert len(failure_records) == len(jobs)
    assert telemetry.active_journal() is None


def test_report_reproduces_store_hit_counts(tmp_path, monkeypatch):
    jdir = tmp_path / "journals"
    _journal_env(monkeypatch, jdir)
    runner = Runner(cache_dir=tmp_path / "cache")
    kwargs = dict(workloads=_WORKLOADS, sizes_kb=(512,), runner=runner,
                  workers=1, **_FAST)
    l2_sweep(**kwargs)  # cold
    l2_sweep(**kwargs)  # warm: all hits
    n_jobs = len(_WORKLOADS)

    journals = sorted(jdir.glob("*.jsonl"))
    assert len(journals) == 2
    warm = next(p for p in journals
                if telemetry.read_journal(str(p))[-1]["hits"] == n_jobs)
    report = telemetry.build_report(str(warm))
    stats = ResultStore(tmp_path / "cache").stats()
    assert report["totals"]["status"] == "ok"
    assert report["totals"]["hits"] == n_jobs
    assert report["stores"][0]["hits"] == stats["hits"] == n_jobs
    assert report["stores"][0]["misses"] == stats["misses"] == n_jobs
    assert report["tiers"]["cycle"]["cached"] == n_jobs
    # Cached jobs still carry their store-lookup span.
    assert "store:get" in report["phases"]
    text = telemetry.render_report(report)
    assert "phase breakdown" in text and "tier mix" in text


def test_build_report_from_torn_journal(tmp_path):
    path = tmp_path / "torn.jsonl"
    path.write_text(
        '{"type": "run", "label": "x"}\n'
        '{"type": "job", "workload": "ar", "label": "512", '
        '"model": "cycle", "cached": false, "seconds": 1.5, '
        '"spans": {"name": "job", "seconds": 1.5}}\n'
        '{"type": "batch", "wall_s": 2.0, "workers": 1}\n')
    report = telemetry.build_report(str(path))
    assert report["totals"]["status"] == "incomplete"
    assert report["totals"]["jobs"] == 1 and report["totals"]["runs"] == 1
    assert report["totals"]["coverage"] == pytest.approx(0.75)
    assert report["slowest"][0]["seconds"] == 1.5


def test_report_normalises_by_worker_seconds(tmp_path):
    # Two workers, 2 s of wall: 3.8 s of summed simulate:cycle self time
    # is 95% of the 4 worker-seconds (it would read 190% of wall).
    def job(workload, seconds, **attrs):
        return {"type": "job", "workload": workload, "label": "512",
                "model": "cycle", "cached": False, "seconds": seconds,
                "spans": {"name": "job", "seconds": seconds, "children": [
                    {"name": "simulate:cycle", "seconds": seconds - 0.1,
                     "attrs": attrs}]}}

    records = [
        {"type": "run", "label": "two-workers"},
        job("ar", 1.5, backend="native"),
        job("co", 1.5, backend="native"),
        job("dm", 1.1, backend="python",
            backend_fallback="custom-observers"),
        {"type": "batch", "wall_s": 2.0, "workers": 2},
        {"type": "summary", "status": "ok", "jobs": 3, "hits": 0,
         "runs": 3, "wall_s": 2.0, "span_s": 4.1, "prebuild_s": 0.0,
         "coverage": 2.05, "push_queue_depth": 0},
    ]
    path = tmp_path / "two.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    report = telemetry.build_report(str(path))
    assert report["totals"]["worker_s"] == pytest.approx(4.0)
    assert report["backends"] == {
        "native": {"runs": 2, "fallbacks": {}},
        "python": {"runs": 1, "fallbacks": {"custom-observers": 1}},
    }
    text = telemetry.render_report(report)
    row = next(line for line in text.splitlines()
               if line.startswith("simulate:cycle"))
    assert "95.0" in row.split()
    assert "cycle backend" in text
    assert "custom-observers x1" in text


def test_cold_synthesis_splits_solve_and_emit(tmp_path):
    # A cold trace is a FEM solve then trace emission; the solve span
    # names the dense LU path its direct solves ran on, and the report
    # tabulates it.
    from repro.fem.solver.direct import lu_path

    runner = Runner(cache_dir=tmp_path / "r", trace_store=False)
    with telemetry.span("job") as root:
        runner.trace_for("ma", scale="tiny", budget=4000)
    (synth,) = root.children
    assert synth.name == "synthesize"
    solve, emit = synth.children
    assert (solve.name, emit.name) == ("synthesize:solve", "synthesize:emit")
    assert solve.attrs["dense_lu"] == lu_path()
    assert solve.attrs["dense_lu_n"] > 0

    records = [
        {"type": "run", "label": "cold"},
        {"type": "job", "workload": "ma", "label": "512", "model": "cycle",
         "cached": False, "seconds": root.seconds, "spans": root.as_dict()},
    ]
    path = tmp_path / "cold.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    report = telemetry.build_report(str(path))
    assert {"synthesize", "synthesize:solve",
            "synthesize:emit"} <= set(report["phases"])
    assert report["dense_lu"] == {lu_path(): {
        "solves": 1, "factorizations": solve.attrs["dense_lu_n"]}}
    assert "dense LU" in telemetry.render_report(report)


def test_report_tabulates_the_stream_precompute_path(tmp_path):
    from repro.uarch import gem5_baseline
    from repro.uarch.core.streams import get_streams, stream_path

    trace, _ = Runner(cache_dir=tmp_path / "r", trace_store=False) \
        .trace_for("ar", scale="tiny", budget=4000)
    with telemetry.span("job") as root:
        for bp in ("local", "ltage"):
            get_streams(trace, gem5_baseline(branch_predictor=bp))
    records = [
        {"type": "run", "label": "bp"},
        {"type": "job", "workload": "ar", "label": "bp", "model": "cycle",
         "cached": False, "seconds": root.seconds, "spans": root.as_dict()},
    ]
    path = tmp_path / "bp.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    report = telemetry.build_report(str(path))
    assert report["streams"] == {stream_path(): {"i-side": 2, "d-side": 1}}
    assert "stream precompute" in telemetry.render_report(report)


# ----------------------------------------------------------------------
# Trace-store counter sidecar
# ----------------------------------------------------------------------
def test_trace_store_sidecar_concurrent_bumps(tmp_path):
    from repro.trace.store import TraceStore

    store = TraceStore(root=str(tmp_path), remote=False)
    threads = [threading.Thread(
        target=lambda: [store._bump("remote_hits") for _ in range(25)])
        for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert store.session_counters["remote_hits"] == 200
    # The locked read-modify-write lost no cross-writer updates.
    assert store.persistent_counters()["remote_hits"] == 200
    # A second handle (another process in real life) sees the total.
    assert TraceStore(root=str(tmp_path),
                      remote=False).persistent_counters()["remote_hits"] == 200


def test_trace_store_bump_survives_readonly_root(tmp_path, monkeypatch):
    from repro.trace.store import TraceStore

    store = TraceStore(root=str(tmp_path / "nope"), create=False,
                       remote=False)
    store._bump("quarantined")  # no root on disk: session counter only
    assert store.session_counters["quarantined"] == 1
    assert store.persistent_counters()["quarantined"] == 0


# ----------------------------------------------------------------------
# /metrics + /healthz on the artifact server
# ----------------------------------------------------------------------
@pytest.fixture
def server(tmp_path):
    from repro.store.server import ArtifactServer

    srv = ArtifactServer(root=str(tmp_path / "srv"), host="127.0.0.1",
                         port=0)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        yield srv
    finally:
        srv.shutdown()
        srv.server_close()
        thread.join(timeout=5)


def _http_get(url):
    with urllib.request.urlopen(url, timeout=10) as resp:
        return resp.status, resp.read(), resp.headers


def test_healthz_and_metrics_endpoints(server):
    status, body, _ = _http_get(server.url + "/healthz")
    assert status == 200
    assert json.loads(body) == {"ok": True, "service": "repro-store"}

    status, body, headers = _http_get(server.url + "/metrics")
    assert status == 200
    assert headers["Content-Type"].startswith("text/plain")
    text = body.decode()
    assert "# TYPE repro_server_requests_total counter" in text
    assert "repro_server_artifacts" in text


def test_metrics_under_concurrent_scrapes(server):
    errors = []

    def scrape():
        try:
            for _ in range(5):
                status, body, _ = _http_get(server.url + "/metrics")
                assert status == 200 and b"# TYPE" in body
                status, _, _ = _http_get(server.url + "/healthz")
                assert status == 200
        except Exception as exc:  # surfaced after join
            errors.append(exc)

    threads = [threading.Thread(target=scrape) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []


def test_server_counts_requests_into_registry(server):
    with pytest.raises(urllib.error.HTTPError) as err:
        _http_get(server.url + "/results/absent-key")
    assert err.value.code == 404
    assert server.counters["misses"] >= 1
    with pytest.raises(urllib.error.HTTPError) as err:
        _http_get(server.url + "/no/such/endpoint/here")
    assert err.value.code == 404
    assert server.counters["errors"] >= 1

    _, body, _ = _http_get(server.url + "/metrics")
    text = body.decode()
    assert ('repro_server_requests_total{namespace="results",'
            'outcome="miss",verb="get"}') in text


# ----------------------------------------------------------------------
# CLI: --json stats and `repro report`
# ----------------------------------------------------------------------
def test_cli_cache_stats_json(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_REMOTE_STORE", raising=False)
    assert main(["cache", "stats", "--json"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["entries"] == 0
    assert {"hits", "misses", "remote_hits"} <= set(stats)


def test_cli_trace_stats_json(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_TRACE_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_REMOTE_STORE", raising=False)
    assert main(["trace", "stats", "--json"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["entries"] == 0
    assert {"remote_hits", "quarantined"} <= set(stats)


def test_cli_report(tmp_path, monkeypatch, capsys):
    _journal_env(monkeypatch, tmp_path)
    with telemetry.scope("cli-run") as j:
        j.job("ar", "512", "cycle", False, 1.25,
              spans={"name": "job", "seconds": 1.25})
        j.batch(2.0, workers=1)

    assert main(["report"]) == 0  # newest journal under the env dir
    out = capsys.readouterr().out
    assert "cli-run" in out and "status=ok" in out

    path = telemetry.latest_journal(str(tmp_path))
    assert main(["report", path, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["totals"]["jobs"] == 1
    assert report["phases"]["job"]["count"] == 1


def test_cli_report_without_journal(tmp_path, monkeypatch, capsys):
    _journal_env(monkeypatch, tmp_path / "empty")
    assert main(["report"]) == 2
    assert "no journal" in capsys.readouterr().err
