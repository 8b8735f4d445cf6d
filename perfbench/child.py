"""One benchmark repetition, in a fresh interpreter.

The parent (``run.py``) starts this script, times it until it prints
``ready`` (the set-up time), and reads its JSON result file when it
exits.  It imports the program's entry points, resolves the cycle
backend, then submits one study and waits for it (a closed loop with
one client).  With ``--layers DIR`` it first wraps each layer's public
functions (see ``layers.py``).

    python3 perfbench/child.py --sweep l2 --policy cycle --workers 1 \\
        --order ar,co,dm,ma,rj,tu --out result.json
"""

import argparse
import hashlib
import json
import os
import resource
import sys
import time


def _digest(stats):
    blob = json.dumps(stats.as_dict(), sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def _journal_summary(directory):
    """Job times, retries and worker count from the run journal the
    program writes under ``REPRO_TELEMETRY_DIR``."""
    from repro import telemetry

    paths = sorted(os.path.join(directory, n) for n in os.listdir(directory)
                   if n.endswith(".jsonl"))
    out = {"job_s": [], "retries": 0, "workers": 1}
    for path in paths:
        report = telemetry.build_report(path)
        out["retries"] += report["totals"]["retries"] or 0
        for rec in telemetry.read_journal(path):
            if rec.get("type") == "job" and rec.get("cached") is False:
                out["job_s"].append(rec["seconds"])
            elif rec.get("type") == "batch":
                out["workers"] = max(out["workers"], rec["workers"])
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--setup-only", action="store_true",
                   help="exit after the ready line (set-up probe)")
    p.add_argument("--prime", action="store_true",
                   help="also compile the native kernel before the study")
    p.add_argument("--sweep")
    p.add_argument("--policy")
    p.add_argument("--workers", type=int)
    p.add_argument("--order", help="comma-separated workload order")
    p.add_argument("--out")
    p.add_argument("--layers", help="trace directory: wrap every layer")
    args = p.parse_args(argv)

    t0 = time.perf_counter()
    import repro.__main__  # noqa: F401  (the CLI: every entry point)
    cli_import_s = time.perf_counter() - t0
    from repro.core import sweeps
    from repro.uarch.core import backends

    backend = backends.backend_from_env()
    if not backends.get_backend(backend).available():
        backend = backends.DEFAULT_BACKEND
    print("ready", flush=True)
    if args.setup_only:
        return 0
    if args.prime:
        backends.get_backend("native").available()

    rec = None
    if args.layers:
        import layers

        rec = layers.install(args.layers)

    study = sweeps.study_for(args.sweep, workloads=args.order.split(","))
    t0 = time.perf_counter()
    result = study.run(policy=args.policy, workers=args.workers)
    sweep_s = time.perf_counter() - t0

    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    import numpy

    out = {
        "sweep_s": sweep_s,
        "cli_import_s": cli_import_s,
        "peak_rss_mb": kib / 1024.0,
        "backend": backend,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "jobs": sum(result.jobs_run.values()),
        "jobs_run": result.jobs_run,
        "failures": [f"{f.workload}@{f.label}: {f.error}"
                     for f in result.failures],
        "cells": [
            {"workload": c.workload, "label": str(c.label), "tier": c.tier,
             "digest": _digest(c.stats), "seconds": c.metrics.seconds,
             "l2_mpki": c.metrics.l2_mpki,
             "instructions": c.stats.instructions}
            for c in result.cells
        ],
    }
    if rec is not None:
        out["layers"] = layers_out = layers.merged(rec)
        layers_out["journal"] = _journal_summary(
            os.environ["REPRO_TELEMETRY_DIR"])
    with open(args.out, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
