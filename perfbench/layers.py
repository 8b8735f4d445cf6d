"""Outside-in layer timing: wrappers installed around repro's public
functions by the benchmark, never by the program itself.

Each wrapper records, per layer, the call count, the inclusive time and
the self time (inclusive time minus the time of wrapped calls nested
inside it).  Self times of distinct layers never overlap, so their sum
over a process is the share of that process's time the layers explain.

Pool workers are forked from the traced process, so they inherit the
wrappers.  A fork hook resets the inherited counters, and a worker
writes its own counters to ``worker-<pid>.json`` in the trace directory
each time its outermost wrapped call returns (workers leave through
``os._exit``, so there is no exit hook to rely on).
"""

import copy
import functools
import json
import os
import sys
import time

#: (layer, module, attribute) — attribute is ``Class.method`` for
#: methods.  Module-level functions are replaced at every module-level
#: reference in ``repro.*``, because callers import them by name.
TARGETS = (
    ("engine.study", "repro.engine.study", "Study.run"),
    ("engine.pool", "repro.engine.pool", "run_jobs"),
    ("engine.pool.prebuild", "repro.engine.pool", "prebuild_traces"),
    ("engine.store.get", "repro.engine.store", "ResultStore.get"),
    ("engine.store.put", "repro.engine.store", "ResultStore.put"),
    ("engine.store.flush", "repro.engine.store", "ResultStore.flush"),
    ("trace.store.load", "repro.trace.store", "TraceStore.load"),
    ("trace.store.save", "repro.trace.store", "TraceStore.save"),
    ("trace.store.sidecar_load", "repro.trace.store",
     "TraceStore.load_sidecar"),
    ("trace.store.sidecar_save", "repro.trace.store",
     "TraceStore.save_sidecar"),
    ("fem.solve", "repro.fem.solver.newton", "solve_model"),
    ("fem.assemble", "repro.fem.assembly", "assemble_system"),
    ("fem.linear", "repro.fem.solver.linear", "solve_linear"),
    ("trace.emit", "repro.trace.solvertrace", "trace_from_record"),
    ("uarch.streams", "repro.uarch.core.streams", "get_streams"),
    ("uarch.cycle.build", "repro.uarch.core.cycle", "CycleCore.__init__"),
    ("uarch.cycle.run", "repro.uarch.core.cycle", "CycleCore.run"),
    ("uarch.dside.access", "repro.uarch.hierarchy",
     "MemoryHierarchy.access_data"),
    ("uarch.dside.walk", "repro.uarch.hierarchy",
     "MemoryHierarchy.inst_miss_walk"),
    ("uarch.interval", "repro.uarch.core.interval", "simulate_interval"),
)

class Recorder:
    """Per-process layer counters: ``{layer: [calls, self_s, incl_s]}``
    plus exact side counts (ops simulated, Newton iterations, ...)."""

    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.owner = os.getpid()
        self.layers = {name: [0, 0.0, 0.0] for name, _, _ in TARGETS}
        self.reset()

    def reset(self):
        # In place: every wrapper holds its layer's list.
        self.pid = os.getpid()
        for entry in self.layers.values():
            entry[:] = [0, 0.0, 0.0]
        self.counts = dict.fromkeys(
            ("store_hits", "sidecar_misses", "streams_computed",
             "cycle_ops", "sim_cycles", "newton_iters", "linear_iters",
             "trace_ops"), 0)
        self.backends = set()
        self.stack = []

    def snapshot(self):
        return {"layers": self.layers, "counts": self.counts,
                "backends": sorted(self.backends)}

    def dump_worker(self):
        path = os.path.join(self.out_dir, f"worker-{self.pid}.json")
        with open(path, "w") as fh:
            json.dump(self.snapshot(), fh)


def _wrap(rec, name, fn, before=None, after=None):
    entry = rec.layers[name]
    perf = time.perf_counter

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = rec.stack
        token = before(rec) if before is not None else None
        stack.append(0.0)
        t0 = perf()
        try:
            result = fn(*args, **kwargs)
        finally:
            dt = perf() - t0
            nested = stack.pop()
            entry[0] += 1
            entry[1] += dt - nested
            entry[2] += dt
            if stack:
                stack[-1] += dt
            elif rec.pid != rec.owner:
                rec.dump_worker()
        if after is not None:
            after(rec, args, result, token)
        return result

    return wrapper


def _count_hit(rec, args, result, token):
    if result is not None:
        rec.counts["store_hits"] += 1


def _count_sidecar_miss(rec, args, result, token):
    if result is None:
        rec.counts["sidecar_misses"] += 1


def _misses_before(rec):
    return rec.counts["sidecar_misses"]


def _count_computed(rec, args, result, token):
    # get_streams found no sidecar when a sidecar lookup inside it
    # missed; in-memory memo hits look nothing up and are not counted.
    if rec.counts["sidecar_misses"] != token:
        rec.counts["streams_computed"] += 1


def _note_backend(rec, args, result, token):
    rec.backends.add(args[0].backend)


def _count_cycle(rec, args, result, token):
    rec.counts["cycle_ops"] += result.instructions
    rec.counts["sim_cycles"] += result.cycles


def _count_solve(rec, args, result, token):
    record = result[1]
    rec.counts["newton_iters"] += record.total_newton_iterations
    rec.counts["linear_iters"] += record.total_linear_iterations


def _count_trace(rec, args, result, token):
    rec.counts["trace_ops"] += len(result)


_HOOKS = {
    "engine.store.get": (None, _count_hit),
    "trace.store.sidecar_load": (None, _count_sidecar_miss),
    "uarch.streams": (_misses_before, _count_computed),
    "uarch.cycle.build": (None, _note_backend),
    "uarch.cycle.run": (None, _count_cycle),
    "fem.solve": (None, _count_solve),
    "trace.emit": (None, _count_trace),
}

def install(out_dir):
    """Wrap every target layer; returns the process's :class:`Recorder`."""
    import importlib

    rec = Recorder(out_dir)
    os.register_at_fork(after_in_child=rec.reset)
    for name, modname, attr in TARGETS:
        module = importlib.import_module(modname)
        before, after = _HOOKS.get(name, (None, None))
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, meth,
                    _wrap(rec, name, cls.__dict__[meth], before, after))
            continue
        original = getattr(module, attr)
        wrapped = _wrap(rec, name, original, before, after)
        for modname2, mod in list(sys.modules.items()):
            if not modname2.startswith("repro") or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
    return rec


def merged(rec):
    """``{"parent": ..., "total": ...}``: this process's counters, and
    those plus every worker's (the parent waits while workers run)."""
    parent = copy.deepcopy(rec.snapshot())
    total = copy.deepcopy(parent)
    backends = set(total["backends"])
    for fname in sorted(os.listdir(rec.out_dir)):
        if not (fname.startswith("worker-") and fname.endswith(".json")):
            continue
        with open(os.path.join(rec.out_dir, fname)) as fh:
            snap = json.load(fh)
        for name, vals in snap["layers"].items():
            total["layers"][name] = [a + b for a, b in
                                     zip(total["layers"][name], vals)]
        for key, value in snap["counts"].items():
            total["counts"][key] += value
        backends.update(snap["backends"])
    total["backends"] = sorted(backends)
    return {"parent": parent, "total": total}
