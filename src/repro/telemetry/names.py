"""The declared span and metric name registries.

``repro report`` aggregates journals by span name and the Prometheus
endpoint exports metric families by metric name, so a misspelled or
ad-hoc name silently fragments every downstream breakdown: the phase
table grows a near-duplicate row, dashboards stop summing, and nobody
notices until the numbers look wrong.  Rule RPR007 of
:mod:`repro.analysis` therefore requires every literal name passed to
``telemetry.span(...)`` / ``counter(...)`` / ``gauge(...)`` /
``histogram(...)`` to appear here.

Keep both tuples *literal* (no computed entries): the linter reads
them from the AST without importing the package.

Adding a name is cheap and deliberate — one line here, one line in the
call site — which is exactly the friction that keeps the namespace
curated.
"""

from __future__ import annotations

__all__ = ["METRIC_NAMES", "SPAN_NAMES"]

#: Phase-timer names (see repro.telemetry.spans).  `repro report`
#: renders one row per name; nesting is expressed by the span tree,
#: not the name, so keep these flat identifiers.
SPAN_NAMES = (
    "job",
    "prebuild",
    "remote:pull",
    "simulate:cycle",
    "simulate:interval",
    "store:get",
    "store:put",
    "stream_precompute",
    "synthesize",
    "synthesize:emit",
    "synthesize:solve",
    "trace_load",
)

#: Metric-family names (see repro.telemetry.metrics).  Prometheus
#: conventions: counters end in ``_total``, timings in ``_seconds``,
#: free-standing gauges in a plain noun.
METRIC_NAMES = (
    "repro_cycle_backend_fallbacks_total",
    "repro_cycle_backend_runs_total",
    "repro_faults_injected_total",
    "repro_fem_dense_lu_total",
    "repro_faults_recovered_total",
    "repro_pool_job_timeouts_total",
    "repro_pool_quarantined_total",
    "repro_pool_retries_total",
    "repro_pool_worker_deaths_total",
    "repro_remote_client_total",
    "repro_remote_push_queue_depth",
    "repro_remote_push_seconds",
    "repro_result_store_lookups_total",
    "repro_result_store_puts_total",
    "repro_result_store_remote_total",
    "repro_server_artifact_bytes",
    "repro_server_artifacts",
    "repro_server_bytes_total",
    "repro_server_requests_total",
    "repro_span_seconds",
    "repro_stream_fallbacks_total",
    "repro_stream_precompute_total",
    "repro_trace_store_events_total",
)
