"""Selectable cycle-tier execution backends.

The cycle tier's per-op state transition has two implementations.
``python`` is the reference — the fused stream loop (and its per-op
sibling) whose outputs are pinned bit-for-bit by the committed golden
fixtures.  ``native`` is a straight C transcription of the fused loop,
compiled on demand with the system C compiler into a
content-addressed shared object and driven through ``ctypes``; it runs
the D-side hierarchy (L1D, shared L2, optional L3, DRAM counters) in C
as well, behind one narrow request/response port that reproduces the
Python hierarchy step for step.

Selection is explicit (``CycleCore(..., backend=...)``,
``simulate(..., backend=...)``, ``repro ... --cycle-backend``) or
environment-driven (``REPRO_CYCLE_BACKEND``).  With neither, a run
uses the faster available backend, :func:`best_backend`: ``native``
where a C toolchain exists, else ``python``.  Because both backends are
bit-identical on the configurations they accept, the backend is **not**
part of the result-store key: a run a backend cannot represent exactly
(no streams, custom observers, a hand-stepped state, no toolchain)
routes to ``python`` instead of producing different bits under the
same key.  Every such routing is counted in
``repro_cycle_backend_fallbacks_total{reason}``; it also prints a
one-line warning when the backend was requested explicitly, and stays
quiet when it was only the default.
"""

from __future__ import annotations

from .... import telemetry
from ....env import env_str, warn_once

__all__ = ["BACKEND_ENV", "BACKEND_NAMES", "DEFAULT_BACKEND",
           "FALLBACK_REASONS", "available_backends", "backend_from_env",
           "best_backend", "fall_back", "get_backend", "requested_backend",
           "select_backend"]

BACKEND_ENV = "REPRO_CYCLE_BACKEND"
# The always-available reference, and the target of every fallback.
DEFAULT_BACKEND = "python"

#: Why a run left its requested backend for ``python`` (the
#: ``reason`` label of repro_cycle_backend_fallbacks_total).
FALLBACK_REASONS = {
    "unavailable": "missing dependency or C toolchain",
    "no-streams": "streams disabled or unavailable",
    "custom-observers": "custom observers need per-cycle hook points",
    "mid-flight": "the core was stepped before run()",
}

_REGISTRY = {}


def register(backend):
    """Add *backend* to the registry (last registration wins)."""
    _REGISTRY[backend.name] = backend
    return backend


def get_backend(name):
    """The backend registered under *name*; raises on unknown names."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown cycle backend {name!r}; expected one of "
            f"{tuple(sorted(_REGISTRY))}"
        ) from None


def available_backends():
    """Names of backends whose dependencies are importable."""
    return tuple(name for name in sorted(_REGISTRY)
                 if _REGISTRY[name].available())


def backend_from_env():
    """The ``REPRO_CYCLE_BACKEND`` selection, defaulting to
    :func:`best_backend` when the knob is unset.

    An unknown value warns once and uses the ``python`` reference,
    matching the forgiving contract of every other ``REPRO_*`` knob.
    """
    raw = env_str(BACKEND_ENV).strip().lower()
    if not raw:
        return best_backend()
    if raw not in _REGISTRY:
        warn_once(("env", BACKEND_ENV, raw),
                  f"ignoring invalid {BACKEND_ENV}={raw!r} (expected one "
                  f"of {'|'.join(sorted(_REGISTRY))}); using "
                  f"{DEFAULT_BACKEND}")
        return DEFAULT_BACKEND
    return raw


def requested_backend(backend=None):
    """``(name, explicit)`` for a run: *backend* if given, else the
    ``REPRO_CYCLE_BACKEND`` value, else :func:`best_backend` — the
    only case that is not an explicit request."""
    if backend:
        return backend, True
    if env_str(BACKEND_ENV).strip():
        return backend_from_env(), True
    return best_backend(), False


def fall_back(requested, reason, explicit=True):
    """Route a run from *requested* to ``python`` for *reason* (a
    :data:`FALLBACK_REASONS` key); returns ``(backend, name, reason)``.

    The routing is always counted; it warns once only when the backend
    was asked for explicitly, since the default choosing a backend that
    then cannot run is not something the user did.
    """
    telemetry.counter(
        "repro_cycle_backend_fallbacks_total",
        help="Cycle-tier runs routed to python, by reason.",
        reason=reason).inc()
    if explicit:
        warn_once(("backend", requested, reason),
                  f"cycle backend {requested!r} cannot run this config "
                  f"bit-exactly ({FALLBACK_REASONS[reason]}); falling "
                  f"back to python")
    return _REGISTRY[DEFAULT_BACKEND], DEFAULT_BACKEND, reason


def select_backend(requested, streams, default_observers, explicit=True):
    """Resolve *requested* against what the run can represent exactly.

    Returns ``(backend, effective_name, fallback_reason)``.  A backend
    that cannot reproduce this (streams, observers) combination
    bit-exactly routes to ``python`` through :func:`fall_back`, because
    bit-exactness, not speed, is the contract that keeps the backend
    out of the result-store key.
    """
    backend = get_backend(requested)
    if not backend.available():
        return fall_back(requested, "unavailable", explicit)
    ok, reason = backend.supports(streams=streams,
                                  default_observers=default_observers)
    if ok:
        return backend, requested, None
    return fall_back(requested, reason, explicit)


BACKEND_NAMES = ("python", "native")


def best_backend():
    """The fastest backend available on this host (never None).

    ``native`` where a C toolchain exists, else the dependency-free
    ``python`` reference.  Correctness is identical everywhere, so
    "best" is purely a speed ranking.
    """
    if _REGISTRY["native"].available():
        return "native"
    return DEFAULT_BACKEND


# Import order matters only for registration; python is the reference
# and the fallback, so it registers first.
from . import python_ref  # noqa: E402,F401
from . import native  # noqa: E402,F401
