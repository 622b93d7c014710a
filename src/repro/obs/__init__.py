"""Observability for simulated runs: trace export, metrics, analysis.

This package is strictly *passive*: nothing in it schedules simulation
events or perturbs grant order, so enabling it leaves simulated
timings bit-identical (the golden determinism tests pin this).  It
builds on two substrates that already exist everywhere in the tree:

* :class:`repro.sim.trace.Trace` -- the structured event log emitted by
  the disk model, network, servers, clients and runtime when a run is
  traced;
* the accounting the machine keeps anyway: the event loop's dispatch
  count and clock, and each :class:`~repro.sim.Resource`'s and
  :class:`~repro.sim.Store`'s ``occupancy()``, read at render time.

Three consumers:

* :mod:`repro.obs.chrome_trace` -- export a traced run to
  Chrome/Perfetto trace-event JSON, one track per simulated resource;
* :mod:`repro.obs.metrics` -- a labeled metrics registry (counters,
  gauges, histograms, live occupancy views) with Prometheus-style text
  snapshots;
* :mod:`repro.obs.critical_path` -- walk the trace into a per-phase
  breakdown of the run and a bottleneck verdict (disk-bound /
  network-bound / startup-bound).
"""

from repro.obs.chrome_trace import to_chrome_trace, write_chrome_trace
from repro.obs.critical_path import CriticalPathReport, analyze
from repro.obs.metrics import MetricsRegistry, attach, observe_trace

__all__ = [
    "to_chrome_trace",
    "write_chrome_trace",
    "CriticalPathReport",
    "analyze",
    "MetricsRegistry",
    "attach",
    "observe_trace",
]
