"""Capture ``reference.json``: the outputs the correctness gate expects.

    python3 perfbench/capture.py

Runs each workload once and records, per cell, the SHA-256 of the full
``SimStats`` dict and its ``seconds``, plus the trace length of each
gem5 workload.  Run it only on a commit whose outputs are trusted.
After writing the file it checks the cycle cells against the committed
golden figures and exits with 1 on a mismatch.
"""

import json
import os
import sys

import run


def main():
    primed = run.prime()
    cells = {}
    ops = {}
    outs = {}
    for workload in run.WORKLOADS:
        rep = run.run_rep(workload, list(run.GEM5_WORKLOADS), False, primed,
                          0)
        if rep["out"] is None:
            print(f"error: {workload} failed (exit {rep['exit']})",
                  file=sys.stderr)
            return 1
        outs[workload] = rep["out"]
        cells[workload] = {}
        for c in rep["out"]["cells"]:
            cells[workload][f"{c['workload']}|{c['label']}"] = {
                "digest": c["digest"], "seconds": c["seconds"]}
            if ops.setdefault(c["workload"], c["instructions"]) \
                    != c["instructions"]:
                print(f"error: {c['workload']} trace length differs "
                      f"between workloads", file=sys.stderr)
                return 1
        print(f"{workload}: {len(cells[workload])} cells", file=sys.stderr)
    reference = {
        "comment": "Outputs of the benchmark's workloads: per cell the "
                   "SHA-256 of SimStats.as_dict() (sorted-key JSON) and "
                   "seconds; trace_ops is the length of each default-scale "
                   "80k-op trace.  Regenerate with perfbench/capture.py.",
        "trace_ops": dict(sorted(ops.items())),
        "cells": cells,
    }
    path = os.path.join(run.HERE, "reference.json")
    with open(path, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    refs = run.load_references()
    status = 0
    for workload, out in outs.items():
        _, failed, err, problems = run.check_rep(workload, out, refs)
        print(f"{workload}: {failed} cells differ from the golden figures, "
              f"tier_err_pct={err}", file=sys.stderr)
        for line in problems:
            print(f"  {line}", file=sys.stderr)
        status = status or int(failed > 0)
    return status


if __name__ == "__main__":
    sys.exit(main())
