"""Central, forgiving parsing of the ``REPRO_*`` environment knobs.

Every tunable the package reads from the environment goes through one
of these helpers so an invalid value can never surface as a deep
``int()``/``float()`` traceback inside the pool or a store.  Instead,
each bad value is reported **once per process** with a one-line
message naming the variable, the rejected value, and the documented
fallback, and the fallback is used.

The knob catalogue lives in :data:`KNOBS` — a literal dict so the
static analyser (:mod:`repro.analysis`, rule RPR002) can read it
without importing anything.  Every ``REPRO_*`` name the package
mentions must be a key there *and* appear in the README env table;
a name in neither is a dead or undocumented knob and fails
``repro lint``.

``REPRO_CYCLE_BACKEND`` never changes results or store keys: both
backends are bit-identical on the configurations they accept, and a
config a backend cannot represent exactly routes to ``python`` (with a
one-line warning when the backend was requested explicitly; see
:mod:`repro.uarch.core.backends`).
"""

from __future__ import annotations

import os
import sys

__all__ = ["KNOBS", "env_dir", "env_flag", "env_int", "env_float",
           "env_max_bytes", "env_remote_url", "env_set", "env_str",
           "user_cache_dir", "warn_once"]

#: Every environment knob the package reads, with a one-line meaning
#: and the documented fallback.  Keep this a *literal* dict: rule
#: RPR002 parses it from the AST, so computed keys would be invisible
#: to the linter (and therefore flagged wherever they are read).
KNOBS = {
    "REPRO_WORKERS": "default pool size (0 = all cores); fallback 1 (serial)",
    "REPRO_BENCH_WORKERS": "benchmark-harness pool opt-in; fallback unset",
    "REPRO_TRACE_MEMO": "per-process trace LRU capacity; fallback 8",
    "REPRO_CACHE_DIR": "result-store directory; fallback auto-detected",
    "REPRO_CACHE_MAX_MB": "result-store size cap; fallback uncapped",
    "REPRO_TRACE_CACHE_DIR": "trace-store directory; fallback auto-detected",
    "REPRO_TRACE_CACHE_MAX_MB": "trace-store size cap; fallback uncapped",
    "REPRO_TRACE_STORE": "0/off disables the trace store; fallback enabled",
    "REPRO_REMOTE_STORE": "shared artifact server URL; fallback no remote",
    "REPRO_REMOTE_TIMEOUT": "remote I/O timeout, seconds; fallback 10",
    "REPRO_REMOTE_RETRIES": "remote retries per request; fallback 2",
    "REPRO_REMOTE_COOLDOWN": "seconds between re-probes of a down remote; "
                             "fallback 30",
    "REPRO_JOB_RETRIES": "retries per failed sweep job; fallback 2",
    "REPRO_JOB_TIMEOUT": "per-job wall-clock timeout, seconds; fallback 0 "
                         "(no timeout)",
    "REPRO_FAULTS": "fault-injection spec(s), see repro.faults; fallback "
                    "no faults",
    "REPRO_TELEMETRY": "spans/metrics switch; fallback on",
    "REPRO_TELEMETRY_DIR": "run-journal directory; fallback no journals",
    "REPRO_CYCLE_BACKEND": "cycle-tier execution backend (python, "
                           "native); default fastest available (native, "
                           "else python); invalid value falls back to "
                           "python",
    "REPRO_NATIVE_CACHE_DIR": "compiled-kernel .so cache; fallback "
                              "per-user temp dir",
}

_WARNED = set()


def warn_once(key, message):
    """Print *message* to stderr at most once per process per *key*."""
    if key in _WARNED:
        return False
    _WARNED.add(key)
    print(f"repro: {message}", file=sys.stderr)
    return True


def _reset_warnings():
    """Test hook: forget which warnings were already emitted."""
    _WARNED.clear()


def env_int(name, default, minimum=None):
    """Integer knob: ``default`` when unset, empty, or unparsable.

    Values below *minimum* are clamped (silently — a too-small value
    is a preference, not a typo).
    """
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        warn_once(("env", name, raw),
                  f"ignoring invalid {name}={raw!r} (not an integer); "
                  f"using {default}")
        return default
    if minimum is not None and value < minimum:
        value = minimum
    return value


def env_float(name, default, minimum=None):
    """Float knob, same contract as :func:`env_int`."""
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        value = float(raw)
    except ValueError:
        warn_once(("env", name, raw),
                  f"ignoring invalid {name}={raw!r} (not a number); "
                  f"using {default}")
        return default
    if minimum is not None and value < minimum:
        value = minimum
    return value


def env_max_bytes(name):
    """Size-cap knob in megabytes -> bytes; ``None`` means "no cap".

    Unset, empty, zero, and negative all mean uncapped (zero/negative
    is the documented way to disable a cap); a non-numeric value warns
    once and falls back to uncapped.
    """
    raw = os.environ.get(name, "").strip()
    if not raw:
        return None
    try:
        mb = float(raw)
    except ValueError:
        warn_once(("env", name, raw),
                  f"ignoring invalid {name}={raw!r} (not a number); "
                  f"store size is uncapped")
        return None
    return int(mb * 1024 * 1024) if mb > 0 else None


def env_flag(name, default=True):
    """Boolean knob: ``0/false/off/no`` disables, anything else enables.

    Matches the ``REPRO_TRACE_STORE`` convention — an unset or empty
    variable means *default*, and only the documented negative
    spellings turn a default-on feature off.
    """
    raw = os.environ.get(name, "").strip().lower()
    if not raw:
        return default
    return raw not in ("0", "false", "off", "no")


def env_dir(name):
    """Directory knob: the configured path, or ``None`` when unset."""
    raw = os.environ.get(name, "").strip()
    return raw or None


def env_str(name, default=""):
    """Raw string knob: the verbatim value, *default* when unset.

    No stripping or validation — the caller owns the parsing (the
    fault-spec grammar, the backend-name check).  Exists so modules
    with bespoke grammars still go through one declared accessor
    instead of touching ``os.environ`` directly (rule RPR001).
    """
    return os.environ.get(name, default)


def env_set(name, value):
    """Export a knob override for this process and its forked children.

    The one sanctioned way to *write* a ``REPRO_*`` variable from
    inside the package (CLI flags like ``--cycle-backend`` export
    their selection so pool workers inherit it).
    """
    os.environ[name] = value


def user_cache_dir(*parts):
    """Per-user cache path: ``$XDG_CACHE_HOME`` (or ``~/.cache``) + parts.

    Centralized here so the ``XDG_CACHE_HOME`` read — like every other
    environment read — happens in exactly one module.
    """
    xdg = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    return os.path.join(xdg, *parts)


def env_remote_url(name="REPRO_REMOTE_STORE"):
    """Shared-store URL knob: an ``http(s)://`` base URL or ``None``.

    A malformed value (wrong scheme, no host) warns once and disables
    the remote tier instead of failing mid-sweep.
    """
    raw = os.environ.get(name, "").strip()
    if not raw:
        return None
    url = raw.rstrip("/")
    scheme, sep, rest = url.partition("://")
    if scheme not in ("http", "https") or not sep or not rest:
        warn_once(("env", name, raw),
                  f"ignoring invalid {name}={raw!r} (expected "
                  f"http://host:port); remote store disabled")
        return None
    return url
