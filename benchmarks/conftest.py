"""Shared infrastructure for the per-figure benchmark harness.

Every ``test_fig*`` module regenerates one paper table/figure: it
computes the data (through the caching runner), writes a rendered text
artifact under ``benchmarks/_output/``, prints it, and times a
representative unit of work with pytest-benchmark.

Committed artifacts hold only deterministic columns, so a run leaves
the tree clean.  Figures whose data *is* a wall-clock measurement
(Figs. 5-6) write the timed rendering to ``benchmarks/_output/timings/``
instead, which is gitignored.
"""

import os

import pytest

from repro.core.runner import Runner

_OUT = os.path.join(os.path.dirname(__file__), "_output")
_TIMINGS = os.path.join(_OUT, "timings")
_CACHE = os.path.join(os.path.dirname(__file__), "_results")

# Opt-in parallelism: REPRO_BENCH_WORKERS=N routes every sweep the
# figure tests run through the engine's process pool (REPRO_WORKERS is
# what core.sweeps reads when no explicit workers= is passed).
_BENCH_WORKERS = os.environ.get("REPRO_BENCH_WORKERS", "")
if _BENCH_WORKERS.strip():
    os.environ.setdefault("REPRO_WORKERS", _BENCH_WORKERS.strip())


@pytest.fixture(scope="session")
def runner():
    return Runner(cache_dir=_CACHE)


@pytest.fixture(scope="session")
def output_dir():
    os.makedirs(_OUT, exist_ok=True)
    return _OUT


@pytest.fixture(scope="session")
def timings_dir():
    os.makedirs(_TIMINGS, exist_ok=True)
    return _TIMINGS


def emit(output_dir, name, text):
    """Write and echo a rendered figure artifact."""
    path = os.path.join(output_dir, name)
    with open(path, "w") as fh:
        fh.write(text)
    print("\n" + text)
    return path
