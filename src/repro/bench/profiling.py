"""Lightweight profiling hooks for the wall-clock hot path.

Two facilities:

- the global performance counters (re-exported from
  :mod:`repro.counters`): events scheduled/fast-pathed, payload bytes
  physically copied, plan- and geometry-cache hit rates.  These are
  host-side observability -- they never affect simulated time;
- :func:`profile`, a ``cProfile`` context manager for ad-hoc "where did
  the wall-clock go" investigations::

      from repro.bench import profiling

      with profiling.profile(top=15):
          run_figure(EXPERIMENTS["fig4"])
      print(profiling.snapshot())

``benchmarks/bench_wallclock.py`` uses both to publish
``BENCH_wallclock.json``.
"""

from __future__ import annotations

import cProfile
import io
import pstats
from contextlib import contextmanager
from typing import Iterator

from repro.counters import COUNTERS, PerfCounters

__all__ = [
    "COUNTERS", "PerfCounters", "reset", "snapshot", "clear_caches", "profile",
]


def reset() -> None:
    """Zero all global performance counters."""
    COUNTERS.reset()


def clear_caches() -> None:
    """Empty every process-wide pure-function memo (per-shape plan
    items with their piece rows, and participants; the cost model's
    per-server walk; the ``.schema`` descriptor template; chunk lists).

    The caches are correctness-neutral -- they memoise pure functions
    of an op's shape -- but they bleed across suites: a second run of
    the same figure hits where the first missed.  The benchmark harness
    calls this (plus :func:`reset`) before each suite so published
    counter values are exact and independent of suite order."""
    from repro.core.costmodel import clear_walk_cache
    from repro.core.plan import clear_plan_cache
    from repro.core.runtime import clear_schema_cache
    from repro.schema.chunking import clear_geometry_caches

    clear_plan_cache()
    clear_walk_cache()
    clear_schema_cache()
    clear_geometry_caches()


def snapshot() -> dict:
    """Current counter values as a plain dict."""
    return COUNTERS.snapshot()


@contextmanager
def profile(top: int = 20, sort: str = "cumulative",
            stream=None) -> Iterator[cProfile.Profile]:
    """Run the body under cProfile and print the ``top`` entries.

    Yields the :class:`cProfile.Profile` so callers can post-process it
    (``dump_stats`` etc.) instead of, or in addition to, the printout.
    """
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        yield profiler
    finally:
        profiler.disable()
        buf = io.StringIO()
        pstats.Stats(profiler, stream=buf).sort_stats(sort).print_stats(top)
        print(buf.getvalue(), file=stream)
