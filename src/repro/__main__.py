"""Command-line interface: ``python -m repro`` / the ``repro`` script.

Subcommands
-----------
``repro sweep <name>``         run one paper sweep through the engine
``repro study ax=v1,v2 ...``   run an arbitrary user-defined grid
``repro run <workload>``       simulate a single workload under a config
``repro characterize [w...]``  top-down + metrics for workloads (engine)
``repro figures <name>``       regenerate one figure's data as JSON
``repro bench``                time the engine hot paths (perf trajectory)
``repro cache stats``          result-store size and hit/miss accounting
``repro cache prune``          LRU-evict the store down to a size cap
``repro cache clear``          drop every cached result
``repro trace stats``          trace-store size and entry accounting
``repro trace clear``          drop every cached trace
``repro report [journal]``     render a telemetry run journal (phase
                               breakdown, tier mix, hit rates, slowest)
``repro serve``                share the stores over HTTP (fleet seed)
``repro push``                 upload local results/traces to the remote
``repro pull``                 download the remote's artifacts locally
``repro list``                 sweeps, figures, study axes, workloads

``sweep``, ``study``, ``characterize``, and ``figures`` all execute
through :mod:`repro.engine` studies: ``--workers N`` fans out over a
process pool, ``--model interval`` swaps the cycle-accurate simulator
for the vectorized interval tier (roughly an order of magnitude
faster), and ``--policy adaptive`` scans the whole grid on the
interval tier and re-runs only each workload's interesting region
cycle-accurately, labeling every result cell with the tier that
produced it.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys

from .core import figures as figmod
from .core import sweeps
from .core.characterize import characterize_jobs, run_characterizations
from .core.runner import Runner, default_cache_dir
from .engine import Progress, ResultStore, resolve_workers
from .engine.study import AXIS_BUILDERS, POLICIES, Study, parse_axis
from .io.textplot import render_table
from .profiling import metric_set
from .uarch import MODELS
from .uarch.config import gem5_baseline, host_i9
from .workloads import names as workload_names
from .workloads import vtune_workloads

SWEEPS = {
    "frequency": sweeps.frequency_sweep,
    "l1i": sweeps.l1i_sweep,
    "l1d": sweeps.l1d_sweep,
    "l2": sweeps.l2_sweep,
    "width": sweeps.width_sweep,
    "lsq": sweeps.lsq_sweep,
    "branch": sweeps.branch_predictor_sweep,
    "rob_iq": sweeps.rob_iq_sweep,
}

FIGURES = {
    "fig2": figmod.fig2_topdown,
    "fig3": figmod.fig3_stall_split,
    "fig4": figmod.fig4_hotspots,
    "fig5": figmod.fig5_scaling,
    "fig6": figmod.fig6_cpu_time,
    "fig7": figmod.fig7_pipeline_stages,
    "fig8": figmod.fig8_frequency,
    "fig9": figmod.fig9_cache,
    "fig10": figmod.fig10_width,
    "fig11": figmod.fig11_lsq,
    "fig12": figmod.fig12_branch_predictor,
}

_METRICS = ("ipc", "cpi", "seconds", "l1i_mpki", "l1d_mpki", "l2_mpki",
            "branch_mpki", "dram_gbps")


def _split_workloads(raw):
    if not raw:
        return sweeps.GEM5_WORKLOADS
    return tuple(w.strip() for w in raw.split(",") if w.strip())


def _store_for(args):
    return ResultStore(args.cache_dir or default_cache_dir())


def _human_bytes(n):
    for unit in ("B", "kB", "MB", "GB"):
        if n < 1024 or unit == "GB":
            return f"{n:.1f} {unit}" if unit != "B" else f"{n} B"
        n /= 1024.0


def _progress(args, label):
    return None if args.quiet else Progress(0, label=label)


def _finish_progress(progress):
    if progress is not None:
        progress.finish()
        print(progress.summary(), file=sys.stderr)


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def _resolve_policy(args):
    """``--policy`` wins; otherwise ``--model`` names the single tier."""
    return getattr(args, "policy", None) or args.model


def _print_result_table(result, metric, title):
    """Render a study result, marking non-top-tier cells with ``~``.

    On a mixed (adaptive) table the accurate tier's cells print bare;
    cells served by the scan tier keep a ``~`` prefix so approximate
    numbers are never mistaken for cycle-accurate ones.
    """
    mixed = len(result.tier_counts()) > 1
    fmt = "{:.4g}"  # readable for IPC (1.974) and seconds (1.044e-05)
    tiers = result.tiers()
    # Columns come from the study's full grid, not the first row's
    # cells: a quarantined cell must leave a visible gap, not silently
    # drop its column for every workload.
    columns = ["workload"]
    columns += [str(label) for label, _ in result.study.points()]
    rows = []
    for w, by_label in result.table().items():
        row = {"workload": w}
        for label, m in by_label.items():
            value = fmt.format(getattr(m, metric))
            if mixed and tiers[(w, label)] != "cycle":
                value = "~" + value
            row[str(label)] = value
        rows.append(row)
    print(render_table(rows, columns=columns, title=title))
    if mixed:
        counts = result.tier_counts()
        grid = len(result.cells)
        print(f"adaptive: {counts.get('cycle', 0)}/{grid} cells "
              f"cycle-refined (~ = interval scan value); cycle jobs run: "
              f"{result.jobs_run.get('cycle', 0)} of {grid} grid points")
    failures = getattr(result, "failures", None)
    if failures:
        rows = [{"workload": f.workload, "label": str(f.label),
                 "tier": f.model, "attempts": str(f.attempts),
                 "error": f"{f.error_type}: {f.error}"[:72]}
                for f in failures]
        print(render_table(
            rows, title=f"quarantined failures ({len(rows)})"))
        print(f"warning: {len(failures)} job(s) quarantined after "
              f"exhausting retries; their cells are missing above "
              f"(rerun or see `repro report`)", file=sys.stderr)


def cmd_sweep(args):
    fn = SWEEPS[args.name]
    workloads = _split_workloads(args.workloads)
    workers = resolve_workers(args.workers)
    policy = _resolve_policy(args)
    kw = dict(workloads=workloads, scale=args.scale, budget=args.budget,
              workers=workers, policy=policy, metric=args.metric,
              full_result=True)
    if args.cache_dir:
        kw["runner"] = Runner(cache_dir=args.cache_dir)

    progress = _progress(args, f"sweep:{args.name}")
    try:
        result = fn(progress=progress, **kw)
    except KeyError as exc:
        print(f"error: unknown workload {exc}", file=sys.stderr)
        return 2
    _finish_progress(progress)

    _print_result_table(
        result, args.metric,
        title=f"{args.name} sweep — {args.metric} "
              f"(scale={args.scale}, budget={args.budget}, "
              f"workers={workers}, model={policy})")
    return 0


def cmd_study(args):
    workers = resolve_workers(args.workers)
    policy = _resolve_policy(args)
    try:
        axes = [parse_axis(spec) for spec in args.axes]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workloads = _split_workloads(args.workloads)
    base = host_i9 if args.host else gem5_baseline
    try:
        study = Study("study", axes=axes, workloads=workloads, base=base,
                      scale=args.scale, budget=args.budget,
                      metric=args.metric)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.host and any(ax.name.endswith("_kb") for ax in axes):
        print("note: cache axes use the paper's canonical per-level "
              "geometry (assoc/latency), not the host preset's — "
              "compare sizes within this study, not against "
              "`repro characterize` host numbers", file=sys.stderr)
    runner = Runner(cache_dir=args.cache_dir) if args.cache_dir else Runner()
    progress = _progress(args, "study")
    try:
        result = study.run(policy=policy, workers=workers, runner=runner,
                           progress=progress)
    except KeyError as exc:
        print(f"error: unknown workload {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # e.g. a cache size whose canonical geometry has no power-of-
        # two set count — the grid is built lazily, at run time.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _finish_progress(progress)

    _print_result_table(
        result, args.metric,
        title=f"{study.describe()} — {args.metric} "
              f"(workers={workers}, model={policy})")
    best = result.best(args.metric)
    rows = [{"workload": w, "best": str(label),
             "tier": result.tiers()[(w, label)]}
            for w, label in best.items()]
    print(render_table(rows, title=f"best {args.metric} per workload"))
    return 0


def cmd_run(args):
    runner = Runner(cache_dir=args.cache_dir) if args.cache_dir else Runner()
    if not args.cache:
        runner.use_disk_cache = False
    base = host_i9 if args.host else gem5_baseline
    overrides = {}
    if args.freq_ghz is not None:
        overrides["freq_ghz"] = args.freq_ghz
    if args.branch_predictor is not None:
        overrides["branch_predictor"] = args.branch_predictor
    config = base(**overrides)
    try:
        stats = runner.stats_for(args.workload, config, scale=args.scale,
                                 budget=args.budget, model=args.model)
    except KeyError as exc:
        print(f"error: unknown workload {exc}", file=sys.stderr)
        return 2
    m = metric_set(stats, f"{args.workload}@{config.name}")
    rows = [{"metric": k, "value": v} for k, v in m.as_dict().items()
            if k != "name"]
    print(render_table(rows, floatfmt="{:.4f}", title=m.name))
    td = stats.topdown()
    rows = [{"slot class": k, "fraction": v} for k, v in td.items()]
    print(render_table(rows, floatfmt="{:.3f}", title="top-down"))
    return 0


def cmd_characterize(args):
    workloads = (list(args.workloads)
                 or [spec.name for spec in vtune_workloads()])
    config = gem5_baseline() if args.gem5 else host_i9()
    policy = _resolve_policy(args)
    jobs = characterize_jobs(workloads, config=config, scale=args.scale,
                             budget=args.budget, model=args.model)
    workers = resolve_workers(args.workers)
    # A fresh Runner (not the process-global one) so --cache-dir and
    # REPRO_CACHE_DIR are honored per invocation, like `repro run`.
    runner = Runner(cache_dir=args.cache_dir) if args.cache_dir else Runner()
    progress = _progress(args, "characterize")
    try:
        # Raw args.policy, not the resolved one: with no --policy the
        # jobs already carry --model as their tier and run exactly as
        # given (the resolved value only labels the table title).
        chars = run_characterizations(
            jobs, runner=runner, workers=workers, progress=progress,
            policy=args.policy)
    except KeyError as exc:
        print(f"error: unknown workload {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _finish_progress(progress)

    rows = []
    for c in chars:
        row = {"workload": c.workload}
        row.update(c.summary())
        rows.append(row)
    print(render_table(
        rows, floatfmt="{:.3f}",
        title=f"characterization — {config.name} (scale={args.scale}, "
              f"budget={args.budget}, workers={workers}, "
              f"model={policy})"))
    return 0


def cmd_figures(args):
    fn = FIGURES[args.name]
    accepted = inspect.signature(fn).parameters
    kw = {}
    dropped = []
    if "workers" in accepted:
        kw["workers"] = resolve_workers(args.workers)
        kw["model"] = args.model
        kw["policy"] = args.policy
        if not args.quiet:
            kw["progress"] = Progress(0, label=args.name)
    else:
        if args.workers is not None:
            dropped.append("--workers")
        if args.model != "cycle":
            dropped.append("--model")
        if args.policy is not None:
            dropped.append("--policy")
    if "scale" in accepted:
        if args.scale is not None:
            kw["scale"] = args.scale
    elif args.scale is not None:
        dropped.append("--scale")
    if dropped:
        print(f"note: {args.name} does not take "
              f"{', '.join(dropped)}; ignoring", file=sys.stderr)
    if "runner" in accepted:
        # Fresh per invocation so --cache-dir / REPRO_CACHE_DIR apply.
        kw["runner"] = (Runner(cache_dir=args.cache_dir)
                        if args.cache_dir else Runner())
    data = fn(**kw)
    _finish_progress(kw.get("progress"))
    text = json.dumps(data, indent=1, sort_keys=True, default=str)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.name} data to {args.out}", file=sys.stderr)
    else:
        print(text)
    return 0


def cmd_cache(args):
    store = _store_for(args)
    if args.action == "stats":
        s = store.stats()
        if args.json:
            print(json.dumps(s, indent=1, sort_keys=True))
            return 0
        cap = (_human_bytes(s["max_bytes"]) if s["max_bytes"] is not None
               else "unlimited")
        rows = [
            {"field": "root", "value": s["root"]},
            {"field": "entries (indexed)", "value": str(s["entries"])},
            {"field": "entries (unindexed legacy)",
             "value": str(s["unindexed_files"])},
            {"field": "total size", "value": _human_bytes(s["total_bytes"])},
            {"field": "size cap", "value": cap},
            {"field": "hits (all time)", "value": str(s["hits"])},
            {"field": "misses (all time)", "value": str(s["misses"])},
            {"field": "evictions (all time)", "value": str(s["evictions"])},
            {"field": "remote", "value": s["remote_url"] or "none"},
            {"field": "remote hits (all time)",
             "value": str(s["remote_hits"])},
            {"field": "remote misses (all time)",
             "value": str(s["remote_misses"])},
        ]
        print(render_table(rows, title="result store"))
    elif args.action == "prune":
        if args.max_mb is None and store.max_bytes is None:
            print("error: no size cap — pass --max-mb or set "
                  "REPRO_CACHE_MAX_MB", file=sys.stderr)
            return 2
        if args.max_mb is not None and args.max_mb <= 0:
            print("error: --max-mb must be positive "
                  "(use `cache clear` to empty the store)",
                  file=sys.stderr)
            return 2
        removed, freed = store.prune(args.max_mb)
        print(f"pruned {removed} entries ({_human_bytes(freed)}) "
              f"from {store.root}")
    else:
        removed = store.clear()
        print(f"cleared {removed} entries from {store.root}")
    return 0


def cmd_trace(args):
    from .trace.store import TraceStore

    store = TraceStore(create=False)
    if args.action == "stats":
        s = store.stats()
        if args.json:
            print(json.dumps(s, indent=1, sort_keys=True))
            return 0
        cap = (_human_bytes(s["max_bytes"]) if s["max_bytes"] is not None
               else "unlimited")
        rows = [
            {"field": "root", "value": s["root"]},
            {"field": "entries", "value": str(s["entries"])},
            {"field": "stream sidecars", "value": str(s["stream_entries"])},
            {"field": "stream size",
             "value": _human_bytes(s["stream_bytes"])},
            {"field": "total size", "value": _human_bytes(s["total_bytes"])},
            {"field": "size cap", "value": cap},
            {"field": "remote", "value": s["remote_url"] or "none"},
            {"field": "remote hits (all time)",
             "value": str(s["remote_hits"])},
            {"field": "remote misses (all time)",
             "value": str(s["remote_misses"])},
            {"field": "quarantined (all time)",
             "value": str(s["quarantined"])},
        ]
        print(render_table(rows, title="trace store"))
    else:
        removed = store.clear()
        print(f"cleared {removed} traces from {store.root}")
    return 0


def cmd_report(args):
    from . import telemetry

    path = args.journal or telemetry.latest_journal()
    if path is None:
        print("error: no journal found — pass a path or set "
              "REPRO_TELEMETRY_DIR before running sweeps", file=sys.stderr)
        return 2
    try:
        report = telemetry.build_report(path)
    except OSError as exc:
        print(f"error: cannot read journal {path}: {exc}", file=sys.stderr)
        return 2
    if not report.get("records"):
        # An empty or fully-torn journal is a degraded run, not a CLI
        # usage error: report what little is known and exit clean.
        print(f"journal {path} has no parseable records (empty or "
              f"truncated); nothing to report")
        return 0
    if args.json:
        print(json.dumps(report, indent=1, sort_keys=True))
    else:
        print(telemetry.render_report(report, top=args.top))
    return 0


def cmd_serve(args):
    from .store.server import serve

    try:
        return serve(root=args.dir, host=args.host, port=args.port,
                     results_dir=args.results_dir,
                     traces_dir=args.traces_dir, verbose=args.verbose)
    except OSError as exc:
        print(f"error: cannot serve on {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 2


def _sync_url(args):
    from .env import env_remote_url

    url = args.url or env_remote_url()
    if url is None:
        print("error: no remote store — pass --url or set "
              "REPRO_REMOTE_STORE=http://host:port", file=sys.stderr)
    return url


def cmd_push(args):
    """Upload every local artifact the remote is missing."""
    import os

    from .store.remote import remote_for
    from .trace.store import TraceStore

    url = _sync_url(args)
    if url is None:
        return 2
    status = 0
    if args.what in ("results", "all"):
        store = _store_for(args)
        remote = remote_for(url, "results")
        have = set(remote.list_keys())
        pushed = 0
        for name in sorted(os.listdir(store.root)):
            if not name.endswith(".json") or name == "manifest.json":
                continue
            key = name[:-len(".json")]
            if key in have:
                continue
            try:
                with open(os.path.join(store.root, name), "rb") as fh:
                    data = fh.read()
            except OSError:
                continue
            # wait=True: a bulk sync must not buffer the whole store in
            # the async queue's memory; upload as we go.
            if remote.put_bytes(key, data, wait=True):
                pushed += 1
        if not remote.available:
            status = 1
        print(f"results: pushed {pushed} entries to {url} "
              f"({len(have)} already there)")
    if args.what in ("traces", "all"):
        remote = remote_for(url, "traces")
        tstore = TraceStore(create=False, remote=remote)
        have = set(remote.list_keys())
        pushed = 0
        for name, _, _ in tstore._entries():
            if name not in have and tstore.push_name(name, wait=True):
                pushed += 1
        if not remote.available:
            status = 1
        print(f"traces: pushed {pushed} archives to {url} "
              f"({len(have)} already there)")
    return status


def cmd_pull(args):
    """Download every remote artifact the local caches are missing."""
    from .store.remote import remote_for
    from .trace.store import TraceStore

    url = _sync_url(args)
    if url is None:
        return 2
    status = 0
    if args.what in ("results", "all"):
        remote = remote_for(url, "results")
        store = ResultStore(args.cache_dir or default_cache_dir(),
                            remote=remote)
        pulled = 0
        skipped = 0
        for key in remote.list_keys():
            if store.contains(key):
                skipped += 1
            elif store.get(key) is not None:  # pulls + indexes locally
                pulled += 1
        store.flush()
        if not remote.available:
            status = 1
        print(f"results: pulled {pulled} entries from {url} "
              f"({skipped} already local)")
    if args.what in ("traces", "all"):
        import os

        remote = remote_for(url, "traces")
        tstore = TraceStore(remote=remote)
        pulled = 0
        skipped = 0
        for name in remote.list_keys():
            if os.path.exists(os.path.join(tstore.root, name)):
                skipped += 1
            elif tstore.pull_name(name):
                pulled += 1
        if not remote.available:
            status = 1
        print(f"traces: pulled {pulled} archives from {url} "
              f"({skipped} already local)")
    return status


def cmd_bench(args):
    import importlib.util
    import os

    # The harness lives with the other benchmarks, outside the package.
    here = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    path = os.path.join(here, "benchmarks", "bench_engine.py")
    if not os.path.exists(path):
        print("error: benchmarks/bench_engine.py not found (installed "
              "package without the benchmarks tree?)", file=sys.stderr)
        return 2
    spec = importlib.util.spec_from_file_location("bench_engine", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    workloads = (tuple(w.strip() for w in args.workloads.split(","))
                 if args.workloads else None)
    entry = module.run_bench(tiny=args.tiny, label=args.label,
                             workloads=workloads, out_path=args.out)
    print(json.dumps(entry, indent=1, sort_keys=True))
    return 0


def cmd_lint_argv(lint_args):
    from .analysis.cli import main as lint_main

    return lint_main(lint_args)


def cmd_lint(args):
    return cmd_lint_argv(args.lint_args)


def cmd_list(args):
    print("sweeps:")
    for name in sorted(SWEEPS):
        print(f"  {name:10s} {SWEEPS[name].__doc__.splitlines()[0]}")
    print("\nfigures:")
    for name in sorted(FIGURES, key=lambda n: int(n[3:])):
        print(f"  {name:10s} {FIGURES[name].__doc__.splitlines()[0]}")
    print("\nstudy axes (repro study name=v1,v2,...):")
    print("  " + ", ".join(sorted(AXIS_BUILDERS)))
    print("\nworkloads:")
    print("  " + ", ".join(sorted(workload_names())))
    return 0


# ----------------------------------------------------------------------
def _add_model_arg(p):
    p.add_argument("--model", choices=MODELS, default="cycle",
                   help="simulator fidelity tier (interval = fast "
                        "vectorized estimate)")


def _add_backend_arg(p):
    from .uarch.core import backends as cycle_backends

    p.add_argument("--cycle-backend", choices=cycle_backends.BACKEND_NAMES,
                   default=None,
                   help="cycle-tier execution backend (default: "
                        "REPRO_CYCLE_BACKEND, then the fastest available: "
                        "native with a C compiler, else python); both "
                        "backends are bit-identical, so results and "
                        "cache keys do not depend on it")


def _add_policy_arg(p):
    p.add_argument("--policy", choices=POLICIES, default=None,
                   help="execution policy; adaptive = interval scan of "
                        "the full grid, then cycle-accurate re-run of "
                        "each workload's interesting region "
                        "(default: the --model tier)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Belenos reproduction: sweeps, runs, and result cache.",
    )
    parser.add_argument("--cache-dir", default=None,
                        help="result-store directory (default: "
                             "REPRO_CACHE_DIR or auto-detected)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="run one paper sweep via the engine")
    p.add_argument("name", choices=sorted(SWEEPS))
    p.add_argument("--workloads", default="",
                   help="comma-separated workload names "
                        "(default: the gem5 six)")
    p.add_argument("--workers", type=int, default=None,
                   help="process-pool size (0 = all cores; "
                        "default: REPRO_WORKERS or 1)")
    p.add_argument("--scale", default="default")
    p.add_argument("--budget", type=int, default=80_000)
    p.add_argument("--metric", choices=_METRICS, default="ipc")
    _add_model_arg(p)
    _add_backend_arg(p)
    _add_policy_arg(p)
    p.add_argument("--quiet", action="store_true",
                   help="suppress the progress meter")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "study",
        help="run a user-defined sweep grid (axis=v1,v2,... specs)")
    p.add_argument("axes", nargs="+", metavar="AXIS=VALUES",
                   help="swept axes, e.g. l2_kb=256,512 freq_ghz=2,3 "
                        "(see `repro list` for axis names)")
    p.add_argument("--workloads", default="",
                   help="comma-separated workload names "
                        "(default: the gem5 six)")
    p.add_argument("--workers", type=int, default=None,
                   help="process-pool size (0 = all cores; "
                        "default: REPRO_WORKERS or 1)")
    p.add_argument("--scale", default="default")
    p.add_argument("--budget", type=int, default=80_000)
    p.add_argument("--metric", choices=_METRICS, default="seconds")
    p.add_argument("--host", action="store_true",
                   help="sweep over the host-i9 config instead of the "
                        "gem5 Table II baseline")
    _add_model_arg(p)
    _add_backend_arg(p)
    _add_policy_arg(p)
    p.add_argument("--quiet", action="store_true",
                   help="suppress the progress meter")
    p.set_defaults(func=cmd_study)

    p = sub.add_parser("run", help="simulate one workload")
    p.add_argument("workload")
    p.add_argument("--scale", default="default")
    p.add_argument("--budget", type=int, default=80_000)
    p.add_argument("--freq-ghz", type=float, default=None)
    p.add_argument("--branch-predictor", default=None)
    p.add_argument("--host", action="store_true",
                   help="use the host-i9 config instead of gem5 baseline")
    _add_model_arg(p)
    _add_backend_arg(p)
    p.add_argument("--no-cache", dest="cache", action="store_false")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser(
        "characterize",
        help="top-down + metric summary for workloads, via the engine")
    p.add_argument("workloads", nargs="*",
                   help="workload names (default: the 12 VTune workloads)")
    p.add_argument("--workers", type=int, default=None,
                   help="process-pool size (0 = all cores; "
                        "default: REPRO_WORKERS or 1)")
    p.add_argument("--scale", default="default")
    p.add_argument("--budget", type=int, default=80_000)
    p.add_argument("--gem5", action="store_true",
                   help="use the gem5 Table II baseline instead of host-i9")
    _add_model_arg(p)
    _add_backend_arg(p)
    _add_policy_arg(p)
    p.add_argument("--quiet", action="store_true",
                   help="suppress the progress meter")
    p.set_defaults(func=cmd_characterize)

    p = sub.add_parser("figures",
                       help="regenerate one paper figure's data as JSON")
    p.add_argument("name", choices=sorted(FIGURES, key=lambda n: int(n[3:])))
    p.add_argument("--workers", type=int, default=None,
                   help="process-pool size (0 = all cores; "
                        "default: REPRO_WORKERS or 1)")
    p.add_argument("--scale", default=None,
                   help="trace scale override (figure-specific default)")
    _add_model_arg(p)
    _add_backend_arg(p)
    _add_policy_arg(p)
    p.add_argument("--out", default=None,
                   help="write JSON here instead of stdout")
    p.add_argument("--quiet", action="store_true",
                   help="suppress the progress meter")
    p.set_defaults(func=cmd_figures)

    p = sub.add_parser("cache", help="inspect, prune, or clear the store")
    p.add_argument("action", choices=("stats", "prune", "clear"))
    p.add_argument("--max-mb", type=float, default=None,
                   help="prune target size (default: REPRO_CACHE_MAX_MB)")
    p.add_argument("--json", action="store_true",
                   help="emit stats as JSON (stats action only)")
    p.set_defaults(func=cmd_cache)

    p = sub.add_parser("trace", help="inspect or clear the trace store")
    p.add_argument("action", choices=("stats", "clear"))
    p.add_argument("--json", action="store_true",
                   help="emit stats as JSON (stats action only)")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "report",
        help="render a telemetry run journal (default: the newest one "
             "under REPRO_TELEMETRY_DIR)")
    p.add_argument("journal", nargs="?", default=None,
                   help="journal .jsonl path (default: newest in "
                        "REPRO_TELEMETRY_DIR)")
    p.add_argument("--top", type=int, default=10,
                   help="slowest-jobs table length (default: 10)")
    p.add_argument("--json", action="store_true",
                   help="emit the report dict as JSON")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser(
        "serve",
        help="share the result + trace stores over HTTP "
             "(point other machines' REPRO_REMOTE_STORE here)")
    p.add_argument("--dir", default=None,
                   help="base directory holding results/ and traces/ "
                        "namespaces (default: serve this machine's own "
                        "cache directories in place)")
    p.add_argument("--host", default="0.0.0.0")
    p.add_argument("--port", type=int, default=8734)
    p.add_argument("--results-dir", default=None,
                   help="results namespace directory (overrides --dir)")
    p.add_argument("--traces-dir", default=None,
                   help="traces namespace directory (overrides --dir)")
    p.add_argument("--verbose", action="store_true",
                   help="log every request")
    p.set_defaults(func=cmd_serve)

    for name, fn, verb in (("push", cmd_push, "upload local artifacts "
                                              "the remote is missing"),
                           ("pull", cmd_pull, "download remote artifacts "
                                              "missing locally")):
        p = sub.add_parser(name, help=verb)
        p.add_argument("--url", default=None,
                       help="artifact server URL "
                            "(default: REPRO_REMOTE_STORE)")
        p.add_argument("--what", choices=("results", "traces", "all"),
                       default="all")
        p.set_defaults(func=fn)

    p = sub.add_parser(
        "bench",
        help="time the engine hot paths; append to BENCH_engine.json")
    p.add_argument("--tiny", action="store_true",
                   help="CI smoke variant (tiny scale, 2 workloads)")
    p.add_argument("--label", default=None,
                   help="entry label (default: full/tiny)")
    p.add_argument("--workloads", default=None,
                   help="comma-separated workload subset")
    p.add_argument("--out", default=None,
                   help="output JSON path (default: committed "
                        "benchmarks/BENCH_engine.json)")
    _add_backend_arg(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser(
        "lint",
        help="AST-based project-invariant linter (rules RPR001..)",
        add_help=False)  # inner parser owns --help and all flags
    p.add_argument("lint_args", nargs=argparse.REMAINDER)
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser("list", help="available sweeps and workloads")
    p.set_defaults(func=cmd_list)
    return parser


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["lint"]:
        # Forwarded before parsing: the lint CLI owns its own flags,
        # and argparse.REMAINDER cannot capture leading options.
        return cmd_lint_argv(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "cycle_backend", None):
        # Exported (not passed call-to-call) so forked pool workers and
        # every simulate() in this process honor the same selection.
        from .env import env_set
        from .uarch.core.backends import BACKEND_ENV

        env_set(BACKEND_ENV, args.cycle_backend)
    try:
        return args.func(args)
    except KeyboardInterrupt:
        print("\ninterrupted (completed jobs remain in the result store)",
              file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
