"""Global wall-clock performance counters.

A single process-wide :class:`PerfCounters` instance (:data:`COUNTERS`)
is incremented from the engine, the data plane and the plan/geometry
caches.  The counters measure *host* work -- events dispatched, payload
bytes physically copied, cache effectiveness -- and are entirely
invisible to the simulated clock.

This module deliberately imports nothing from the rest of the package:
it sits below :mod:`repro.sim` in the dependency order so the hottest
code can increment counters without import cycles.  The user-facing
surface (reset/snapshot/profile helpers) lives in
:mod:`repro.bench.profiling`.
"""

from __future__ import annotations

__all__ = ["PerfCounters", "COUNTERS"]


class PerfCounters:
    """Plain additive counters; attribute increments only, so the hot
    paths pay one attribute store per event."""

    __slots__ = (
        "events_scheduled",
        "events_fastpath",
        "bytes_copied",
        "plan_cache_hits",
        "plan_cache_misses",
        "geom_cache_hits",
        "geom_cache_misses",
        "piece_rows_built",
        "faults_injected",
        "disk_faults",
        "messages_dropped",
        "messages_delayed",
        "fault_retries",
        "server_crashes",
        "recoveries",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        #: events pushed through Simulator.schedule (heap + fast path)
        self.events_scheduled = 0
        #: the subset of events_scheduled that took the zero-delay deque
        self.events_fastpath = 0
        #: payload bytes physically copied by the data plane (gather/
        #: scatter materialisations and store writes; zero-copy views
        #: do not count)
        self.bytes_copied = 0
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0
        #: geometry cache: the process-wide DataSchema chunk-list memo
        #: (a schema instance's own cached list is not counted)
        self.geom_cache_hits = 0
        self.geom_cache_misses = 0
        #: piece rows the plan layer built: one per (sub-chunk, client
        #: piece), once per server and op shape (a plan-memo hit reuses
        #: the rows with the items)
        self.piece_rows_built = 0
        #: fault injection (see :mod:`repro.faults`): total injected
        #: faults and the per-kind breakdown, plus the recovery work
        #: (protocol/disk retries, crash recoveries) they triggered.
        self.faults_injected = 0
        self.disk_faults = 0
        self.messages_dropped = 0
        self.messages_delayed = 0
        self.fault_retries = 0
        self.server_crashes = 0
        self.recoveries = 0

    def snapshot(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}={v}" for k, v in self.snapshot().items())
        return f"PerfCounters({inner})"


COUNTERS = PerfCounters()
