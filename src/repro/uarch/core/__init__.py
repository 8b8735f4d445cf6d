"""Out-of-order core model with selectable fidelity tiers.

Two tiers share one entry point:

* ``model="cycle"`` — the cycle-accurate pipeline
  (:class:`CycleCore`) over a shared :class:`CoreState`, with TMA slot
  accounting and hotspot sampling as pluggable :class:`Observer`
  instances.  Its loop runs on one of two backends: the compiled
  ``native`` kernel, which also runs the D-side cache hierarchy in C
  and is the default wherever a C toolchain exists, or the fused
  ``python`` loop, which is the reference every result is pinned
  against.  Both are bit-identical to the seed simulator.
* ``model="interval"`` — a vectorized interval model
  (:func:`simulate_interval`): batched cache/TLB/branch estimation
  over NumPy arrays plus an analytical cycle estimate.  Roughly an
  order of magnitude faster; use it to trade fidelity for sweep-grid
  size.
"""

from __future__ import annotations

from .cycle import CycleCore
from .interval import (INTERVAL_SCAN_MARGIN, INTERVAL_VERSION,
                       simulate_interval)
from .observers import HotspotSampler, Observer, TMASlotClassifier
from .state import CoreState, functional_warmup

__all__ = [
    "CoreState",
    "CycleCore",
    "HotspotSampler",
    "MODELS",
    "Observer",
    "TIER_LADDER",
    "TMASlotClassifier",
    "functional_warmup",
    "refine_tier",
    "scan_margin",
    "scan_tier",
    "simulate",
    "simulate_interval",
]

MODELS = ("cycle", "interval")

# Store-key version per fidelity tier.  The cycle tier is pinned by
# golden-fixture bit-parity, so its keys never change; approximate
# tiers version their keys so recalibration invalidates old caches.
MODEL_VERSIONS = {"cycle": 0, "interval": INTERVAL_VERSION}

# Fidelity ladder, coarse to accurate.  Adaptive execution scans one
# rung below its target tier and refines back up; these hooks keep the
# tier relationship (and each scan tier's trusted flatness margin) a
# property of the simulator package, not of every call site.
TIER_LADDER = ("interval", "cycle")
_SCAN_MARGINS = {"interval": INTERVAL_SCAN_MARGIN}


def scan_tier(model):
    """The next-coarser tier to pre-scan with, or None at the bottom."""
    i = TIER_LADDER.index(model)
    return TIER_LADDER[i - 1] if i > 0 else None


def refine_tier(model):
    """The next-more-accurate tier to refine onto, or None at the top."""
    i = TIER_LADDER.index(model)
    return TIER_LADDER[i + 1] if i + 1 < len(TIER_LADDER) else None


def scan_margin(model):
    """Relative metric slack trusted when *model* ranks grid points."""
    return _SCAN_MARGINS.get(model, 0.0)


def simulate(trace, config, max_cycles=None, warm=True, model="cycle",
             observers=None, backend=None):
    """Run ``trace`` through a core configured by ``config``.

    ``model`` selects the fidelity tier: ``"cycle"`` (default) steps
    the pipeline cycle by cycle; ``"interval"`` runs the
    vectorized analytical model (``max_cycles`` and ``observers`` do
    not apply).  ``warm=True`` performs a functional warmup pass first
    so counters reflect steady-state behavior rather than cold-start
    compulsory misses.  ``backend`` picks the cycle-loop execution
    backend (default: ``REPRO_CYCLE_BACKEND``, then the fastest
    available: ``native`` with a C toolchain, else ``python``); both
    backends are bit-identical, so results are backend-independent.
    Returns a fully populated :class:`~repro.uarch.stats.SimStats`.
    """
    from ... import telemetry

    if model == "interval":
        with telemetry.span("simulate:interval"):
            return simulate_interval(trace, config, warm=warm)
    if model != "cycle":
        raise ValueError(f"unknown model {model!r}; expected one of "
                         f"{MODELS}")
    with telemetry.span("simulate:cycle") as sp:
        core = CycleCore(trace, config, max_cycles=max_cycles, warm=warm,
                         observers=observers, backend=backend)
        if sp is not None:
            sp.attrs["backend"] = core.backend
            if core.backend_fallback is not None:
                sp.attrs["backend_fallback"] = core.backend_fallback
        telemetry.counter(
            "repro_cycle_backend_runs_total",
            help="Cycle-tier runs by execution backend.",
            backend=core.backend).inc()
        return core.run()
