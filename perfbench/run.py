"""Belenos sweep benchmark: one workload, measured end to end.

    python3 perfbench/run.py --workload l2-sweep-warm --seed 1 \\
        --seconds 32 --trace 0

Each repetition runs in a fresh interpreter (``child.py``) that submits
one study and waits for it.  Every repetition starts from its own copy
of the trace-store state the workload names and an empty result store,
and its outputs are checked against the committed references.  With
``--trace 1`` untraced and traced repetitions alternate; the traced
ones wrap each layer's public functions and report per-layer metrics.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it are a
readable report, and the full result set (with provenance) is written
to ``.bench_build/perfbench/results/``.  See ``README.md`` for the
workloads, the metrics and what each layer metric should move.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import select
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CACHE = os.path.join(ROOT, ".bench_build", "perfbench")
CHILD = os.path.join(HERE, "child.py")
# Scratch space of this invocation: state copies, stores, journals.
RUNS = os.path.join(CACHE, "runs", str(os.getpid()))

GEM5_WORKLOADS = ("ar", "co", "dm", "ma", "rj", "tu")

#: name -> (sweep, policy, workers, trace-store state at start).
#: States: "full" = traces and stream sidecars, "traces" = traces only,
#: "empty" = nothing.  The result store always starts empty.
WORKLOADS = {
    "l2-sweep-warm": ("l2", "cycle", 1, "full"),
    "bp-sweep-par": ("branch", "cycle", 2, "traces"),
    "cold-scan": ("l2", "interval", 1, "empty"),
}

SETUP_PROBES = 5
MIN_REPS = 2
REP_TIMEOUT = 150.0
# Bump when priming changes what it leaves in the cache.
PRIME_VERSION = "2"


# ----------------------------------------------------------------------
# Environment and priming
# ----------------------------------------------------------------------
def source_digest():
    """Content hash of the program's source tree (keys the primed state)."""
    h = hashlib.sha256(PRIME_VERSION.encode())
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".pyc", ".so")):
                continue
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def child_env(rep_dir, traces, telemetry=False):
    """The program's defaults: every ``REPRO_*`` knob unset except the
    cache directories (and the journal directory of a traced run).

    Bytecode is cached under ``.bench_build`` (priming fills it), so
    set-up time is that of a warm import, as on any second launch.
    """
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_") and k != "PYTHONDONTWRITEBYTECODE"}
    tmp = os.path.join(rep_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env.update({
        "PYTHONPATH": os.path.join(ROOT, "src"),
        "PYTHONPYCACHEPREFIX": os.path.join(CACHE, "pycache"),
        "TMPDIR": tmp,
        "REPRO_CACHE_DIR": os.path.join(rep_dir, "results"),
        "REPRO_TRACE_CACHE_DIR": traces,
        "REPRO_NATIVE_CACHE_DIR": os.path.join(CACHE, "native"),
    })
    if telemetry:
        env["REPRO_TELEMETRY_DIR"] = os.path.join(rep_dir, "journal")
    return env


def run_child(args, env, timeout=REP_TIMEOUT):
    """Run ``child.py``; returns (seconds until ``ready``, exit code).

    The set-up time is measured from outside: from process launch until
    the child reports that the entry points are imported and the cycle
    backend is resolved.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, CHILD] + args, env=env,
                            stdout=subprocess.PIPE, text=True)
    setup_s = None
    try:
        ready, _, _ = select.select([proc.stdout], [], [], timeout)
        if ready and proc.stdout.readline().strip() == "ready":
            setup_s = time.perf_counter() - t0
        code = proc.wait(timeout=max(1.0, timeout - (time.perf_counter()
                                                     - t0)))
    except subprocess.TimeoutExpired:
        code = None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    return setup_s, code


def _copy_state(src, dst, sidecars):
    os.makedirs(dst, exist_ok=True)
    if src is None:
        return
    for name in os.listdir(src):
        if name.startswith(".") or (not sidecars
                                    and name.endswith(".streams.npz")):
            continue
        shutil.copy2(os.path.join(src, name), os.path.join(dst, name))


def prime():
    """Build, once per source tree, the trace store every warm workload
    copies from: the six default-scale traces plus the L2 sweep's stream
    sidecars.  Also compiles the native kernel and the bytecode, so no
    timed phase compiles anything.  Returns the primed trace directory.
    """
    prime_dir = os.path.join(CACHE, "prime")
    stamp_path = os.path.join(prime_dir, "STAMP")
    stamp = source_digest()
    try:
        with open(stamp_path) as fh:
            if fh.read() == stamp:
                return os.path.join(prime_dir, "traces")
    except OSError:
        pass
    shutil.rmtree(prime_dir, ignore_errors=True)
    os.makedirs(prime_dir)
    traces = os.path.join(prime_dir, "traces")
    work = os.path.join(prime_dir, "work")
    env = child_env(work, traces)
    _, code = run_child(["--prime", "--sweep", "l2", "--policy", "cycle",
                         "--workers", "2", "--order", ",".join(GEM5_WORKLOADS),
                         "--out", os.path.join(work, "out.json")],
                        env, timeout=800.0)
    if code != 0:
        raise RuntimeError(f"priming the trace store failed (exit {code})")
    shutil.rmtree(work)
    with open(stamp_path, "w") as fh:
        fh.write(stamp)
    return traces


# ----------------------------------------------------------------------
# One repetition
# ----------------------------------------------------------------------
def run_rep(workload, order, traced, primed, index):
    sweep, policy, workers, state = WORKLOADS[workload]
    rep_dir = os.path.join(RUNS, str(index))
    shutil.rmtree(rep_dir, ignore_errors=True)
    traces = os.path.join(rep_dir, "traces")
    _copy_state(None if state == "empty" else primed, traces,
                sidecars=state == "full")
    env = child_env(rep_dir, traces, telemetry=traced)
    out_path = os.path.join(rep_dir, "out.json")
    args = ["--sweep", sweep, "--policy", policy, "--workers", str(workers),
            "--order", ",".join(order), "--out", out_path]
    if traced:
        layer_dir = os.path.join(rep_dir, "layers")
        os.makedirs(layer_dir)
        args += ["--layers", layer_dir]
    t0 = time.perf_counter()
    setup_s, code = run_child(args, env)
    wall = time.perf_counter() - t0
    out = None
    if code == 0:
        with open(out_path) as fh:
            out = json.load(fh)
    shutil.rmtree(rep_dir, ignore_errors=True)
    return {"traced": traced, "order": order, "setup_s": setup_s,
            "exit": code, "wall_s": wall, "out": out}


# ----------------------------------------------------------------------
# Correctness gate
# ----------------------------------------------------------------------
def load_references():
    with open(os.path.join(ROOT, "tests", "golden", "study_parity.json")) \
            as fh:
        golden = json.load(fh)
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)
    l2 = {f"{r['workload']}|{r['size_kb']}": r
          for r in golden["fig9_default"]["l2"]}
    bp = {f"{r['workload']}|{r['param']}": r["pct_diff"]
          for r in golden["fig12_default"]}
    return {"l2": l2, "bp": bp, "ref": reference}


def check_rep(workload, out, refs):
    """``(jobs, failed, tier_err_pct, problems)`` for one repetition.

    A job fails when its cell is missing (raised or quarantined) or
    differs from the references: the full ``SimStats`` digest and the
    trace length captured at the parent commit, and for cycle cells the
    committed golden figures (Fig. 9 L2 rows, Fig. 12 ``pct_diff``).
    """
    sweep, policy, _, _ = WORKLOADS[workload]
    expected = refs["ref"]["cells"][workload]
    ops = refs["ref"]["trace_ops"]
    if out is None:
        return len(expected), len(expected), None, ["repetition failed"]
    cells = {f"{c['workload']}|{c['label']}": c for c in out["cells"]}
    problems = list(out["failures"])
    best = {}
    for key, c in cells.items():
        w = c["workload"]
        best[w] = min(best.get(w, c["seconds"]), c["seconds"])
    failed = 0
    errs = []
    for key, ref in expected.items():
        c = cells.get(key)
        bad = []
        if c is None:
            bad.append("missing")
        else:
            if c["tier"] != policy:
                bad.append(f"tier {c['tier']}")
            if c["digest"] != ref["digest"]:
                bad.append("SimStats digest")
            if c["instructions"] != ops[c["workload"]]:
                bad.append(f"trace ops {c['instructions']}")
            if sweep == "l2":
                gold = refs["l2"][key]
                cyc = gold["seconds"]
                if policy == "cycle" and (
                        c["seconds"] != gold["seconds"]
                        or c["l2_mpki"] != gold["mpki"]
                        or c["seconds"] / best[c["workload"]]
                        != gold["norm_time"]):
                    bad.append("Fig. 9 golden row")
            else:
                cyc = ref["seconds"]
                base = cells.get(f"{c['workload']}|tournament")
                if key in refs["bp"]:
                    pct = (None if base is None else 100.0 * (
                        c["seconds"] - base["seconds"]) / base["seconds"])
                    if pct != refs["bp"][key]:
                        bad.append("Fig. 12 golden pct_diff")
            err = 100.0 * abs(c["seconds"] - cyc) / cyc
            errs.append(err)
            if policy == "cycle" and err != 0.0:
                bad.append(f"cycle error {err}%")
        if bad:
            failed += 1
            problems.append(f"{key}: {', '.join(bad)}")
    extra = set(cells) - set(expected)
    problems += [f"{key}: unexpected cell" for key in sorted(extra)]
    jobs = max(out["jobs"], len(expected))
    failed += len(extra)
    tier_err = max(errs) if errs else None
    return jobs, failed, tier_err, problems


# ----------------------------------------------------------------------
# Per-layer metrics (traced repetitions)
# ----------------------------------------------------------------------
#: end-to-end metric -> unit (the BENCHMARK.json ``end_to_end`` list).
END_TO_END_UNITS = {"sweep_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

#: per-layer metric -> unit (the BENCHMARK.json ``per_layer`` list).
PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "engine.study.cycle_jobs": "count",
    "engine.study.interval_jobs": "count",
    "engine.pool.prebuild_s": "s",
    "engine.pool.busy_s": "s",
    "engine.pool.efficiency": "ratio",
    "engine.pool.job_p50_s": "s",
    "engine.pool.job_max_s": "s",
    "engine.pool.retries": "count",
    "engine.store.get_n": "count",
    "engine.store.get_s": "s",
    "engine.store.hits": "count",
    "engine.store.put_n": "count",
    "engine.store.put_s": "s",
    "trace.store.load_n": "count",
    "trace.store.load_s": "s",
    "trace.store.sidecar_load_n": "count",
    "trace.store.sidecar_load_s": "s",
    "trace.store.save_n": "count",
    "trace.store.save_s": "s",
    "trace.store.sidecar_save_n": "count",
    "trace.store.sidecar_save_s": "s",
    "fem.solve_n": "count",
    "fem.solve_s": "s",
    "fem.assemble_n": "count",
    "fem.assemble_s": "s",
    "fem.linear_n": "count",
    "fem.linear_s": "s",
    "fem.newton_iters": "count",
    "fem.linear_iters": "count",
    "trace.emit_n": "count",
    "trace.emit_s": "s",
    "trace.ops": "count",
    "uarch.streams.get_n": "count",
    "uarch.streams.s": "s",
    "uarch.streams.computed": "count",
    "uarch.cycle.build_s": "s",
    "uarch.cycle.run_s": "s",
    "uarch.cycle.ops": "count",
    "uarch.cycle.kops_per_s": "kops/s",
    "uarch.cycle.sim_cycles": "count",
    "uarch.dside.calls": "count",
    "uarch.dside.s": "s",
    "uarch.interval.n": "count",
    "uarch.interval.s": "s",
    "traced.coverage": "%",
    "traced.overhead_pct": "%",
    "tier_err_pct": "%",
}


def layer_metrics(out):
    """Per-layer metrics and the self-time table of one traced run.

    ``*_s`` metrics are inclusive (a layer's time includes the wrapped
    layers it calls).  Shares and coverage use self times, which never
    overlap.  With a process pool, time is counted in process-seconds:
    the parent's time waiting in ``run_jobs`` is left out and the
    workers' job time (from the run journal) comes in.
    """
    lay = out["layers"]
    total, counts = lay["total"]["layers"], lay["total"]["counts"]
    journal = lay["journal"]
    wall = out["sweep_s"]
    workers = journal["workers"]
    job_s = journal["job_s"]
    busy = sum(job_s)
    waiting = lay["parent"]["layers"]["engine.pool"][1] if workers > 1 \
        else 0.0
    traced_s = wall - waiting + (busy if workers > 1 else 0.0)
    rows = []
    for name, (calls, self_s, incl_s) in total.items():
        if calls:
            if name == "engine.pool":
                self_s -= waiting
            rows.append((name, calls, self_s, incl_s))
    # The study and pool layers orchestrate; their self time is glue
    # that no work layer explains, so it counts as uncovered.
    covered = sum(r[2] for r in rows
                  if r[0] not in ("engine.study", "engine.pool"))

    def n(layer):
        return total[layer][0]

    def s(layer):
        return total[layer][2]

    run_s = s("uarch.cycle.run")
    m = {
        "cli.import_s": out["cli_import_s"],
        "engine.study.cycle_jobs": out["jobs_run"].get("cycle", 0),
        "engine.study.interval_jobs": out["jobs_run"].get("interval", 0),
        "engine.pool.prebuild_s": s("engine.pool.prebuild"),
        "engine.pool.busy_s": busy,
        "engine.pool.efficiency": busy / (workers * wall),
        "engine.pool.job_p50_s": statistics.median(job_s) if job_s else 0.0,
        "engine.pool.job_max_s": max(job_s, default=0.0),
        "engine.pool.retries": journal["retries"],
        "engine.store.get_n": n("engine.store.get"),
        "engine.store.get_s": s("engine.store.get"),
        "engine.store.hits": counts["store_hits"],
        "engine.store.put_n": n("engine.store.put"),
        "engine.store.put_s": s("engine.store.put")
        + s("engine.store.flush"),
        "trace.store.load_n": n("trace.store.load"),
        "trace.store.load_s": s("trace.store.load"),
        "trace.store.sidecar_load_n": n("trace.store.sidecar_load"),
        "trace.store.sidecar_load_s": s("trace.store.sidecar_load"),
        "trace.store.save_n": n("trace.store.save"),
        "trace.store.save_s": s("trace.store.save"),
        "trace.store.sidecar_save_n": n("trace.store.sidecar_save"),
        "trace.store.sidecar_save_s": s("trace.store.sidecar_save"),
        "fem.solve_n": n("fem.solve"),
        "fem.solve_s": s("fem.solve"),
        "fem.assemble_n": n("fem.assemble"),
        "fem.assemble_s": s("fem.assemble"),
        "fem.linear_n": n("fem.linear"),
        "fem.linear_s": s("fem.linear"),
        "fem.newton_iters": counts["newton_iters"],
        "fem.linear_iters": counts["linear_iters"],
        "trace.emit_n": n("trace.emit"),
        "trace.emit_s": s("trace.emit"),
        "trace.ops": counts["trace_ops"],
        "uarch.streams.get_n": n("uarch.streams"),
        "uarch.streams.s": s("uarch.streams"),
        "uarch.streams.computed": counts["streams_computed"],
        "uarch.cycle.build_s": s("uarch.cycle.build"),
        "uarch.cycle.run_s": run_s,
        "uarch.cycle.ops": counts["cycle_ops"],
        "uarch.cycle.kops_per_s": (counts["cycle_ops"] / run_s / 1000.0
                                   if run_s else 0.0),
        "uarch.cycle.sim_cycles": counts["sim_cycles"],
        "uarch.dside.calls": n("uarch.dside.access") + n("uarch.dside.walk"),
        "uarch.dside.s": s("uarch.dside.access") + s("uarch.dside.walk"),
        "uarch.interval.n": n("uarch.interval"),
        "uarch.interval.s": s("uarch.interval"),
        "traced.coverage": 100.0 * covered / traced_s,
    }
    table = sorted(((name, calls, self_s, 100.0 * self_s / traced_s, incl)
                    for name, calls, self_s, incl in rows),
                   key=lambda r: -r[2])
    return m, table


# ----------------------------------------------------------------------
# Provenance and reporting
# ----------------------------------------------------------------------
def _first_line(cmd):
    try:
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = (res.stdout or "").strip().splitlines()
    return lines[0] if res.returncode == 0 and lines else None


def provenance(seed, workload, reps):
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    done = [r["out"] for r in reps if r["out"] is not None]
    head = (_first_line(["git", "-C", ROOT, "rev-parse", "HEAD"])
            if os.path.isdir(os.path.join(ROOT, ".git")) else None)
    return {
        "cpu": cpu or platform.processor() or None,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": done[0]["numpy"] if done else None,
        "cc": _first_line(["cc", "--version"]),
        "git_head": head,
        "source_digest": source_digest(),
        "workers": WORKLOADS[workload][2],
        "seed": seed,
        "backend": sorted({o["backend"] for o in done}),
        "backend_ran": sorted({b for o in done if "layers" in o
                               for b in o["layers"]["total"]["backends"]}),
    }


def git_status():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    res = subprocess.run(["git", "-C", ROOT, "status", "--porcelain"],
                         capture_output=True, text=True)
    return res.stdout


def _remove_stale_runs():
    """Remove scratch space left by invocations that were killed."""
    parent = os.path.dirname(RUNS)
    if not os.path.isdir(parent):
        return
    for name in os.listdir(parent):
        try:
            os.kill(int(name), 0)
            continue  # still running
        except (ValueError, ProcessLookupError):
            pass
        except PermissionError:
            continue
        shutil.rmtree(os.path.join(parent, name), ignore_errors=True)


def _median(values):
    return statistics.median(values) if values else None


def measure(workload, seed, seconds, trace, refs, primed):
    """Run *workload* for *seconds*; returns its result set."""
    rng = random.Random(seed)
    start = time.perf_counter()
    setup = []
    for _ in range(SETUP_PROBES):
        s, code = run_child(["--setup-only"], child_env(
            os.path.join(RUNS, "probe"), primed))
        if code == 0 and s is not None:
            setup.append(s)
    reps = []
    order = list(GEM5_WORKLOADS)
    while True:
        # Orders come in antithetic pairs (a shuffle, then its reverse):
        # peak RSS depends on how many traces are held when the largest
        # FEM model is solved, and a pair evens that out.
        if len(reps) % 2 == 0:
            rng.shuffle(order)
        else:
            order.reverse()
        traced = bool(trace) and len(reps) % 2 == 1
        reps.append(run_rep(workload, list(order), traced, primed,
                            len(reps)))
        elapsed = time.perf_counter() - start
        typical = _median([r["wall_s"] for r in reps])
        if len(reps) >= MIN_REPS and (elapsed + typical > seconds
                                      or elapsed + typical > REP_TIMEOUT):
            break

    attempted = failed = 0
    problems = []
    errs = []
    for r in reps:
        jobs, bad, err, why = check_rep(workload, r["out"], refs)
        attempted += jobs
        failed += bad
        problems += why
        if err is not None:
            errs.append(err)
        if r["setup_s"] is not None:
            setup.append(r["setup_s"])
    plain = [r["out"] for r in reps if r["out"] and not r["traced"]]
    traced_runs = [r["out"] for r in reps if r["out"] and r["traced"]]
    end_to_end = {
        "sweep_s": _median([o["sweep_s"] for o in plain]),
        "setup_s": _median(setup),
        "peak_rss_mb": _median([o["peak_rss_mb"] for o in plain]),
    }
    per_layer = {}
    table = []
    if traced_runs:
        results = [layer_metrics(o) for o in traced_runs]
        for name in results[0][0]:
            values = [m[name] for m, _ in results]
            # Counts stay whole numbers.
            per_layer[name] = (statistics.median_low(values)
                               if all(isinstance(v, int) for v in values)
                               else statistics.median(values))
        table = results[-1][1]
        per_layer["traced.overhead_pct"] = 100.0 * (
            _median([o["sweep_s"] for o in traced_runs])
            / end_to_end["sweep_s"] - 1.0) if plain else None
        per_layer["tier_err_pct"] = max(errs) if errs else None
    return {
        "workload": workload,
        "provenance": provenance(seed, workload, reps),
        "correct": (failed == 0 and not problems
                    and len(setup) >= SETUP_PROBES
                    and all(r["out"] is not None for r in reps)),
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:50],
        "reps": len(reps),
        "tier_err_pct": max(errs) if errs else None,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "samples": {
            "sweep_s": [o["sweep_s"] for o in plain],
            "setup_s": setup,
            "traced_sweep_s": [o["sweep_s"] for o in traced_runs],
        },
        "layer_table": table,
    }


def print_report(rep):
    print(f"# {rep['workload']}  seed={rep['provenance']['seed']}  "
          f"reps={rep['reps']} (traced {len(rep['samples']['traced_sweep_s'])})"
          f"  correct={rep['correct']}  jobs={rep['attempted']}  "
          f"jobs_failed={rep['failed']}  tier_err_pct={rep['tier_err_pct']}")
    for line in rep["problems"][:20]:
        print(f"#   problem: {line}")
    for name, value in rep["end_to_end"].items():
        print(f"#   {name:<28} {value!s:>20} {END_TO_END_UNITS[name]}")
    for name, value in rep["per_layer"].items():
        print(f"#   {name:<28} {value!s:>20} {PER_LAYER_UNITS[name]}")
    if rep["layer_table"]:
        top = max((r for r in rep["layer_table"]
                   if not r[0].startswith("engine.")), key=lambda r: r[4])
        print(f"#   dominant layer (inclusive): {top[0]} {top[4]:.3f} s")
        print(f"#   {'layer (self time)':<28} {'calls':>9} {'self_s':>9} "
              f"{'share%':>7} {'incl_s':>9}")
        for name, calls, self_s, share, incl in rep["layer_table"]:
            print(f"#   {name:<28} {calls:>9} {self_s:>9.3f} {share:>7.1f} "
                  f"{incl:>9.3f}")
    print("# provenance: " + json.dumps(rep["provenance"], sort_keys=True))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(WORKLOADS) + ["all"],
                   help="one workload, or all of them with --trace 1")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=32.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no program source under {ROOT}/src", file=sys.stderr)
        return 2
    refs = load_references()
    before = git_status()
    _remove_stale_runs()
    primed = prime()
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    trace = 1 if args.workload == "all" else args.trace
    reports = [measure(name, args.seed, args.seconds, trace, refs, primed)
               for name in names]
    shutil.rmtree(RUNS, ignore_errors=True)
    if git_status() != before:
        for rep in reports:
            rep["correct"] = False
            rep["problems"].append("git status changed during the run")

    os.makedirs(os.path.join(CACHE, "results"), exist_ok=True)
    metrics = {}
    for rep in reports:
        with open(os.path.join(CACHE, "results",
                               f"{rep['workload']}-seed{args.seed}"
                               f"-trace{trace}.json"), "w") as fh:
            json.dump(rep, fh, indent=1)
        print_report(rep)
        values = {}
        if args.workload == "all" or not trace:
            values.update((k, (v, END_TO_END_UNITS[k]))
                          for k, v in rep["end_to_end"].items())
        if trace:
            values.update((k, (v, PER_LAYER_UNITS[k]))
                          for k, v in rep["per_layer"].items())
        prefix = f"{rep['workload']}/" if args.workload == "all" else ""
        metrics.update((prefix + k, {"value": v, "unit": u})
                       for k, (v, u) in values.items())
    print(json.dumps({"correct": all(r["correct"] for r in reports),
                      "attempted": sum(r["attempted"] for r in reports),
                      "failed": sum(r["failed"] for r in reports),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
