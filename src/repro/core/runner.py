"""Run management: solve/trace/simulate with three-level caching.

* In-process: traces are memoized per (workload, scale, budget) in a
  small LRU — sweeps reuse one trace across dozens of configs without
  letting mixed-budget study grids grow worker RSS without bound
  (``REPRO_TRACE_MEMO`` sets the cap).  The engine pool additionally
  publishes a read-only :data:`PREBUILT_TRACES` set that forked
  workers inherit copy-on-write, so a batch's traces are built or
  loaded once, in the parent.
* On disk, traces: built traces persist in a
  :class:`repro.trace.store.TraceStore` (columnar ``.npz``, mmap-backed
  loads) so the multi-second synthesis cost — dominated by the FEM
  solve — is paid once per machine, not once per process.
* On disk, results: ``SimStats`` are cached in a
  :class:`repro.engine.store.ResultStore` keyed by (workload, scale,
  budget, config fingerprint) so benchmark re-renders are instant and
  any number of pool workers can share one cache safely.
"""

from __future__ import annotations

import os
from collections import OrderedDict

from .. import faults, telemetry
from ..engine.jobs import JobSpec
from ..engine.store import ResultStore
from ..env import env_dir, env_int, user_cache_dir, warn_once
from ..fem.solver import solve_model
from ..fem.solver.direct import lu_path
from ..trace import TraceRequest, workload_trace
from ..trace.store import TraceStore, store_enabled
from ..uarch import SimStats, simulate
from ..workloads import get as get_workload

__all__ = ["Runner", "default_cache_dir", "default_runner",
           "PREBUILT_TRACES"]

TRACE_MEMO_ENV = "REPRO_TRACE_MEMO"
_TRACE_MEMO_DEFAULT = 8

# Traces pre-built/loaded by the engine pool's parent process before
# forking, keyed like the memo.  Workers read it copy-on-write; only
# `engine.pool` writes it.  Entries here are never evicted by the
# per-runner LRU (they are shared pages, not per-process RSS).
PREBUILT_TRACES = {}


def _trace_memo_cap():
    return env_int(TRACE_MEMO_ENV, _TRACE_MEMO_DEFAULT, minimum=1)


def _note_dense_lu(sp, record):
    """Label a solve span with its direct factorizations and the LU path
    that ran them (``repro report`` tabulates both)."""
    n = sum(info.method == "direct"
            for step in record.steps for info in step.linear_solves)
    if n:
        sp.attrs["dense_lu"] = lu_path()
        sp.attrs["dense_lu_n"] = n


def default_cache_dir():
    """Resolve the on-disk result-store location.

    Priority: the ``REPRO_CACHE_DIR`` env var, then the repo-local
    ``benchmarks/_results`` when running from a source checkout, then a
    per-user cache directory (installed packages live in site-packages,
    where walking up from ``__file__`` finds no ``benchmarks/``).
    """
    env = env_dir("REPRO_CACHE_DIR")
    if env:
        return env
    here = os.path.dirname(os.path.abspath(__file__))
    repo_root = os.path.dirname(os.path.dirname(os.path.dirname(here)))
    if os.path.isdir(os.path.join(repo_root, "benchmarks")):
        return os.path.join(repo_root, "benchmarks", "_results")
    return user_cache_dir("repro")


class Runner:
    """Caching orchestrator for workload simulations."""

    def __init__(self, cache_dir=None, use_disk_cache=True, store=None,
                 trace_store=None, trace_memo=None):
        self.cache_dir = cache_dir or default_cache_dir()
        self.use_disk_cache = use_disk_cache
        self._store = store
        self._traces = OrderedDict()
        self._trace_memo_cap = trace_memo or _trace_memo_cap()
        # None = resolve lazily (honoring REPRO_TRACE_CACHE_DIR /
        # REPRO_TRACE_STORE at first use); False = explicitly disabled.
        self._trace_store = trace_store

    @property
    def store(self):
        """Lazily opened result store backing the disk cache."""
        if self._store is None:
            self._store = ResultStore(self.cache_dir)
        return self._store

    @property
    def trace_store(self):
        """Lazily opened persistent trace store (None when disabled)."""
        if self._trace_store is None:
            self._trace_store = (TraceStore(create=False) if store_enabled()
                                 else False)
        return self._trace_store or None

    # ------------------------------------------------------------------
    def trace_for(self, workload, scale="default", budget=80_000):
        """Trace for a workload, through three cache levels.

        Lookup order: the pool's shared prebuilt set, this runner's
        LRU memo, the persistent on-disk trace store (mmap load; with
        ``REPRO_REMOTE_STORE`` set a local miss pulls from the shared
        artifact server first), and finally a full synthesis (solve +
        emission) whose result is persisted — and pushed back to the
        remote, when one is configured — for every later process.

        Returns ``(trace, record)``; the solve record is only available
        when the trace was synthesized in this process (store/prebuilt
        hits return ``record=None`` — no current caller consumes it).
        """
        key = (workload, scale, budget)
        prebuilt = PREBUILT_TRACES.get(key)
        if prebuilt is not None:
            # Prebuilt traces may have been reconstructed from shipped
            # columns (pool synthesis) without store provenance; stamp
            # it here so workers persist stream sidecars too.
            if getattr(prebuilt[0], "_stream_persist", None) is None:
                tstore = self.trace_store
                if tstore is not None:
                    prebuilt[0]._stream_persist = (
                        tstore, tstore.key(workload, scale, budget))
            return prebuilt
        memo = self._traces
        if key in memo:
            memo.move_to_end(key)
            return memo[key]
        entry = None
        tstore = self.trace_store
        if tstore is not None:
            with telemetry.span("trace_load", workload=workload):
                trace = tstore.load(workload, scale, budget)
            if trace is not None:
                entry = (trace, None)
        if entry is None:
            spec = get_workload(workload)
            request = TraceRequest(budget=budget, scale=scale)
            with telemetry.span("synthesize", workload=workload,
                                scale=str(scale), budget=budget):
                with telemetry.span("synthesize:solve") as sp:
                    model = spec.build(scale)
                    _, record = solve_model(model)
                    record.model = model
                    if sp is not None:
                        _note_dense_lu(sp, record)
                with telemetry.span("synthesize:emit"):
                    trace, record = workload_trace(spec, request, model,
                                                   record)
            entry = (trace, record)
            if tstore is not None:
                try:
                    tstore.save(workload, scale, budget, trace)
                except OSError:
                    pass  # read-only cache location: stay in-process
        if tstore is not None:
            # Stamp store provenance so derived artifacts (precomputed
            # front-end streams) can persist next to the trace archive.
            entry[0]._stream_persist = (
                tstore, tstore.key(workload, scale, budget))
        memo[key] = entry
        while len(memo) > self._trace_memo_cap:
            memo.popitem(last=False)
        return entry

    def stats_for(self, workload, config, scale="default", budget=80_000,
                  model="cycle"):
        """Simulate a workload under a config (disk-cached).

        ``model`` selects the simulator fidelity tier; tiers cache
        under distinct keys.
        """
        return self.stats_for_job(
            JobSpec(workload, config, scale=scale, budget=budget,
                    model=model))

    def stats_for_job(self, job):
        """Execute one :class:`~repro.engine.jobs.JobSpec` (disk-cached).

        The engine's serial path and study execution hand their
        already-built specs straight here instead of re-deriving one
        from loose fields.
        """
        if self.use_disk_cache:
            payload = self.store.get(job.key(), job.legacy_key())
            if payload is not None:
                return SimStats.from_dict(payload)
        trace, _ = self.trace_for(job.workload, job.scale, job.budget)
        stats = simulate(trace, job.config, model=job.model)
        if self.use_disk_cache:
            # Deferred: payload file lands now; the manifest entry is
            # batched with the next flush (sweeps flush once per run).
            # A failed write (disk full) degrades to an uncached result
            # with a one-line warning — never a failed job.
            try:
                self.store.put(job.key(), stats.as_dict(), meta=job.meta(),
                               defer=True)
            except OSError as exc:
                warn_once(("store-put-failed", self.store.root),
                          f"result store {self.store.root} write failed "
                          f"({exc}); results stay in memory only")
                faults.recovered("store.put")
        return stats

    def clear_disk_cache(self):
        if os.path.isdir(self.cache_dir):
            # Clear through our own store handle if one exists so its
            # pending hit/adoption bookkeeping resets with the files.
            store = (self._store if self._store is not None
                     else ResultStore(self.cache_dir, create=False))
            store.clear()


_runner = None


def default_runner():
    """The process-wide shared runner."""
    global _runner
    if _runner is None:
        _runner = Runner()
    return _runner
