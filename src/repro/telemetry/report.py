"""Turn a run journal into a human/CI-readable performance report.

``repro report [journal]`` (see :mod:`repro.__main__`) renders the
output of :func:`build_report`: where a run's time went by phase,
which fidelity tiers and cycle backends served the jobs, which dense
LU path factored the cold solves' systems, which path computed the
front-end streams, the cache/remote hit rates the stores recorded, the
slowest jobs, and the remote push-queue depth at run end.  ``--json``
emits the report dict itself.

Phase self times are summed over every process that ran jobs, so the
phase table divides them by *worker-seconds* — each batch's wall time
times its worker count — not by wall time; with one worker the two
are the same.
"""

from __future__ import annotations

from .journal import read_journal

__all__ = ["build_report", "render_report"]


def _walk_phases(node, phases):
    seconds = node.get("seconds", 0.0) or 0.0
    children = node.get("children", ())
    entry = phases.setdefault(node.get("name", "?"),
                              {"seconds": 0.0, "self_s": 0.0, "count": 0})
    entry["seconds"] += seconds
    entry["count"] += 1
    entry["self_s"] += max(
        0.0, seconds - sum(c.get("seconds", 0.0) or 0.0 for c in children))
    for child in children:
        _walk_phases(child, phases)


def _walk_backends(node, backends):
    if node.get("name") == "simulate:cycle":
        attrs = node.get("attrs") or {}
        entry = backends.setdefault(attrs.get("backend", "?"),
                                    {"runs": 0, "fallbacks": {}})
        entry["runs"] += 1
        reason = attrs.get("backend_fallback")
        if reason:
            entry["fallbacks"][reason] = entry["fallbacks"].get(reason, 0) + 1
    for child in node.get("children", ()):
        _walk_backends(child, backends)


def _walk_dense_lu(node, paths):
    attrs = node.get("attrs") or {}
    if node.get("name") == "synthesize:solve" and "dense_lu" in attrs:
        entry = paths.setdefault(attrs["dense_lu"],
                                 {"solves": 0, "factorizations": 0})
        entry["solves"] += 1
        entry["factorizations"] += attrs.get("dense_lu_n", 0)
    for child in node.get("children", ()):
        _walk_dense_lu(child, paths)


def _walk_streams(node, paths):
    attrs = node.get("attrs") or {}
    if node.get("name") == "stream_precompute":
        entry = paths.setdefault(attrs.get("path", "?"),
                                 {"i-side": 0, "d-side": 0})
        entry["d-side" if attrs.get("side") == "d" else "i-side"] += 1
    for child in node.get("children", ()):
        _walk_streams(child, paths)


def build_report(path):
    """Aggregate one journal file into a report dict."""
    records = read_journal(path)
    header = next((r for r in records if r.get("type") == "run"), {})
    jobs = [r for r in records if r.get("type") == "job"]
    batches = [r for r in records if r.get("type") == "batch"]
    failures = [r for r in records if r.get("type") == "failure"]
    retries = [r for r in records if r.get("type") == "retry"]
    summary = next((r for r in reversed(records)
                    if r.get("type") == "summary"), None)

    phases = {}
    backends = {}
    dense_lu = {}
    streams = {}
    for job in jobs:
        spans = job.get("spans")
        if spans:
            _walk_phases(spans, phases)
            _walk_backends(spans, backends)
            _walk_dense_lu(spans, dense_lu)
            _walk_streams(spans, streams)
    for batch in batches:
        spans = batch.get("spans")
        if spans:
            _walk_phases(spans, phases)
            _walk_dense_lu(spans, dense_lu)

    tiers = {}
    for job in jobs:
        entry = tiers.setdefault(job.get("model", "?"),
                                 {"jobs": 0, "cached": 0, "run": 0})
        entry["jobs"] += 1
        if job.get("cached"):
            entry["cached"] += 1
        elif job.get("cached") is not None:
            entry["run"] += 1

    slowest = sorted(
        (j for j in jobs if j.get("seconds")),
        key=lambda j: j["seconds"], reverse=True)

    if summary is not None:
        totals = {k: summary.get(k) for k in
                  ("status", "jobs", "hits", "runs", "wall_s", "span_s",
                   "prebuild_s", "coverage", "push_queue_depth")}
        # Older journals predate the retry/failure records.
        totals["retries"] = summary.get("retries", len(retries))
        totals["failures"] = summary.get("failures", len(failures))
        stores = summary.get("stores", [])
    else:  # torn journal (killed run): reconstruct what we can
        wall = sum(b.get("wall_s", 0.0) for b in batches)
        span_s = sum(j.get("seconds") or 0.0 for j in jobs)
        prebuild = sum(b.get("prebuild_s", 0.0) for b in batches)
        totals = {
            "status": "incomplete",
            "jobs": len(jobs),
            "hits": sum(1 for j in jobs if j.get("cached")),
            "runs": sum(1 for j in jobs if j.get("cached") is False),
            "retries": len(retries),
            "failures": len(failures),
            "wall_s": round(wall, 6),
            "span_s": round(span_s, 6),
            "prebuild_s": round(prebuild, 6),
            "coverage": (round((span_s + prebuild) / wall, 4)
                         if wall else 0.0),
            "push_queue_depth": None,
        }
        stores = [b["store"] for b in batches if "store" in b]
    totals["worker_s"] = round(
        sum((b.get("wall_s") or 0.0) * (b.get("workers") or 1)
            for b in batches), 6) or totals.get("wall_s")

    return {
        "journal": path,
        "run": {k: header.get(k) for k in ("label", "utc", "pid")},
        "records": len(records),
        "totals": totals,
        "failures": [
            {k: f.get(k) for k in ("workload", "label", "model", "error",
                                   "error_type", "attempts", "backend")}
            for f in failures
        ],
        "phases": {
            name: {"seconds": round(v["seconds"], 6),
                   "self_s": round(v["self_s"], 6),
                   "count": v["count"]}
            for name, v in sorted(phases.items(),
                                  key=lambda kv: -kv[1]["self_s"])
        },
        "tiers": tiers,
        "backends": backends,
        "dense_lu": dense_lu,
        "streams": streams,
        "stores": stores,
        "slowest": [
            {"workload": j.get("workload"), "label": j.get("label"),
             "model": j.get("model"), "cached": j.get("cached"),
             "seconds": j.get("seconds")}
            for j in slowest
        ],
    }


def render_report(report, top=10):
    """Render a report dict as tables (returns the text)."""
    from ..io.textplot import render_table

    parts = []
    run = report["run"]
    totals = report["totals"]
    wall = totals.get("wall_s") or 0.0
    worker_s = totals.get("worker_s") or wall
    parts.append(
        f"run {run.get('label') or '?'} ({run.get('utc') or '?'}) — "
        f"{report['journal']}")
    status_line = (
        f"status={totals.get('status')}  jobs={totals.get('jobs')}  "
        f"cache hits={totals.get('hits')}  simulated={totals.get('runs')}  "
        f"wall={wall:.2f}s  worker-s={worker_s:.2f}  span coverage="
        f"{(totals.get('coverage') or 0.0) * 100:.1f}%  "
        f"push queue={totals.get('push_queue_depth')}")
    if totals.get("retries") or totals.get("failures"):
        status_line += (f"  retries={totals.get('retries', 0)}  "
                        f"failures={totals.get('failures', 0)}")
    parts.append(status_line)

    if report.get("failures"):
        rows = [
            {"workload": str(f.get("workload")),
             "label": str(f.get("label")),
             "tier": str(f.get("model")),
             "attempts": str(f.get("attempts")),
             "error": f"{f.get('error_type')}: {f.get('error')}"[:72]}
            for f in report["failures"]
        ]
        parts.append(render_table(
            rows, title=f"quarantined failures ({len(rows)})"))

    if report["phases"]:
        rows = [
            {"phase": name,
             "self s": f"{v['self_s']:.3f}",
             "total s": f"{v['seconds']:.3f}",
             "% worker-s": (f"{v['self_s'] / worker_s * 100:.1f}"
                            if worker_s else "-"),
             "count": str(v["count"])}
            for name, v in report["phases"].items()
        ]
        parts.append(render_table(rows, title="phase breakdown "
                                              "(self time, largest first)"))

    if report["tiers"]:
        rows = [
            {"tier": model, "jobs": str(v["jobs"]),
             "cache hits": str(v["cached"]), "simulated": str(v["run"])}
            for model, v in sorted(report["tiers"].items())
        ]
        parts.append(render_table(rows, title="tier mix"))

    if report.get("backends"):
        rows = [
            {"backend": name, "runs": str(v["runs"]),
             "fallback reasons": ", ".join(
                 f"{r} x{k}" for r, k in sorted(v["fallbacks"].items()))
             or "-"}
            for name, v in sorted(report["backends"].items())
        ]
        parts.append(render_table(rows, title="cycle backend"))

    if report.get("dense_lu"):
        rows = [
            {"path": name, "solves": str(v["solves"]),
             "factorizations": str(v["factorizations"])}
            for name, v in sorted(report["dense_lu"].items())
        ]
        parts.append(render_table(rows, title="dense LU (trace synthesis)"))

    if report.get("streams"):
        rows = [
            {"path": name, "i-side": str(v["i-side"]),
             "d-side": str(v["d-side"])}
            for name, v in sorted(report["streams"].items())
        ]
        parts.append(render_table(rows, title="stream precompute"))

    for store in report["stores"]:
        lookups = (store.get("hits", 0) or 0) + (store.get("misses", 0) or 0)
        remote = ((store.get("remote_hits", 0) or 0)
                  + (store.get("remote_misses", 0) or 0))
        rows = [
            {"field": "root", "value": str(store.get("root", "?"))},
            {"field": "hits", "value": str(store.get("hits", 0))},
            {"field": "misses", "value": str(store.get("misses", 0))},
            {"field": "hit rate",
             "value": (f"{store.get('hits', 0) / lookups * 100:.1f}%"
                       if lookups else "-")},
            {"field": "remote hits",
             "value": str(store.get("remote_hits", 0))},
            {"field": "remote misses",
             "value": str(store.get("remote_misses", 0))},
            {"field": "remote hit rate",
             "value": (f"{store.get('remote_hits', 0) / remote * 100:.1f}%"
                       if remote else "-")},
        ]
        parts.append(render_table(rows, title="result store"))

    slowest = report["slowest"][:top]
    if slowest:
        rows = [
            {"workload": str(j["workload"]), "label": str(j["label"]),
             "tier": str(j["model"]),
             "cached": "hit" if j["cached"] else "run",
             "seconds": f"{j['seconds']:.3f}"}
            for j in slowest
        ]
        parts.append(render_table(rows, title=f"slowest {len(slowest)} jobs"))
    return "\n".join(parts)
