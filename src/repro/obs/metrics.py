"""A labeled metrics registry with sim-time series and Prometheus-style
text snapshots.

Metrics here measure the *simulated* system, in simulated seconds --
they are not host-side counts (that is :mod:`repro.counters`).
Everything is passive: the observers attached by :func:`attach` record
occupancy changes the simulation was making anyway and never schedule
events, so simulated timings are unaffected (a deliberate contrast
with a "sampler process", which would keep the event loop alive and
change drain semantics).

Metric kinds:

* :class:`Counter` -- monotonically increasing count;
* :class:`Gauge` -- a value that goes up and down;
* :class:`Histogram` -- bucketed observations (Prometheus cumulative
  ``le`` convention);
* :class:`TimeSeries` -- a step function of sim time sampled at change
  points; renders as last/time-weighted-mean/max gauges and doubles as
  the ``obs`` hook object for :class:`~repro.sim.Resource` /
  :class:`~repro.sim.Store` (its :meth:`TimeSeries.sample` has the
  hook's signature).

:func:`attach` wires a full :class:`~repro.core.runtime.PandaRuntime`
(disk arms, out/in links, mailboxes, the event loop); call
:meth:`MetricsRegistry.render` after the run for the snapshot.
:func:`observe_trace` back-fills service/wait histograms from a
finished :class:`~repro.sim.trace.Trace`.
"""

from __future__ import annotations

import bisect
import itertools
import math
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.sim.trace import Trace

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "TimeSeries",
    "MetricsRegistry",
    "SimObserver",
    "attach",
    "observe_trace",
]

#: default histogram buckets for durations in simulated seconds
DURATION_BUCKETS = (
    1e-5, 1e-4, 1e-3, 5e-3, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0,
)
#: default histogram buckets for request sizes in bytes
SIZE_BUCKETS = (
    512, 4096, 32768, 65536, 262144, 1048576, 4194304, 16777216,
)
#: default histogram buckets for small counts (queue depths etc.)
COUNT_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256)


class Counter:
    """A monotonically increasing counter."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def samples(self, name: str, labels: str) -> List[Tuple[str, float]]:
        return [(f"{name}{labels}", self.value)]


class Gauge:
    """A value that can go up and down."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def samples(self, name: str, labels: str) -> List[Tuple[str, float]]:
        return [(f"{name}{labels}", self.value)]


class Histogram:
    """Bucketed observations, Prometheus cumulative-``le`` style.

    Observation is O(log buckets): a :func:`bisect.bisect_left` over
    the sorted boundary tuple finds the one raw bucket the value lands
    in (``bisect_left`` returns the first boundary ``>= value``, which
    is exactly the inclusive ``value <= le`` Prometheus rule).  Raw
    per-bucket tallies are kept internally; the Prometheus-facing
    :attr:`counts` view is the cumulative prefix sum, identical to what
    the old per-observation linear scan maintained.  On soak runs every
    traced scheduler event observes into histograms, so this is hot.
    """

    __slots__ = ("buckets", "_raw", "sum", "count")

    def __init__(self, buckets: Iterable[float] = DURATION_BUCKETS) -> None:
        self.buckets = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket")
        self._raw = [0] * len(self.buckets)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        i = bisect.bisect_left(self.buckets, value)
        if i < len(self._raw):
            self._raw[i] += 1

    @property
    def counts(self) -> List[int]:
        """Cumulative bucket counts (``counts[i]`` = observations
        ``<= buckets[i]``), as the linear-scan implementation stored."""
        return list(itertools.accumulate(self._raw))

    def samples(self, name: str, labels: str) -> List[Tuple[str, float]]:
        out = []
        for le, c in zip(self.buckets, self.counts):
            out.append((f"{name}_bucket{_merge_label(labels, 'le', le)}", c))
        out.append((f"{name}_bucket{_merge_label(labels, 'le', '+Inf')}",
                    self.count))
        out.append((f"{name}_sum{labels}", self.sum))
        out.append((f"{name}_count{labels}", self.count))
        return out


class TimeSeries:
    """A step function of sim time, sampled at change points.

    Doubles as the passive ``obs`` hook for resources and stores:
    ``sample(t, value)`` is exactly the hook signature.  Repeated
    samples at the same instant collapse to the last one (zero-delay
    event cascades settle within one sim instant).
    """

    __slots__ = ("times", "values")

    def __init__(self) -> None:
        self.times: List[float] = []
        self.values: List[float] = []

    def sample(self, t: float, value: float) -> None:
        if self.times and self.times[-1] == t:
            self.values[-1] = value
        else:
            self.times.append(t)
            self.values.append(value)

    @property
    def last(self) -> float:
        return self.values[-1] if self.values else 0.0

    @property
    def max(self) -> float:
        return max(self.values) if self.values else 0.0

    def mean(self, t_end: Optional[float] = None) -> float:
        """Time-weighted mean over ``[first sample, t_end]``."""
        if not self.times:
            return 0.0
        if t_end is None:
            t_end = self.times[-1]
        span = t_end - self.times[0]
        if span <= 0:
            return float(self.values[-1])
        area = 0.0
        for i, v in enumerate(self.values):
            t_next = self.times[i + 1] if i + 1 < len(self.times) else t_end
            area += v * (min(t_next, t_end) - self.times[i])
        return area / span

    def samples(self, name: str, labels: str) -> List[Tuple[str, float]]:
        return [
            (f"{name}{labels}", self.last),
            (f"{name}_max{labels}", self.max),
            (f"{name}_mean{labels}", self.mean()),
        ]


def _format_labels(labels: Dict[str, Any]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{k}="{labels[k]}"' for k in sorted(labels)
    )
    return "{" + inner + "}"


def _merge_label(labels: str, key: str, value: Any) -> str:
    extra = f'{key}="{value}"'
    if not labels:
        return "{" + extra + "}"
    return labels[:-1] + "," + extra + "}"


def _format_value(v: float) -> str:
    if isinstance(v, float) and math.isinf(v):
        return "+Inf" if v > 0 else "-Inf"
    if float(v) == int(v):
        return str(int(v))
    return repr(float(v))


class MetricsRegistry:
    """Labeled metric families with Prometheus text rendering.

    ``registry.counter("panda_sim_events_total", "...")`` returns the
    child for the given label set, creating family and child on first
    use; repeated calls with the same name+labels return the same
    child."""

    _TYPES = {
        Counter: "counter", Gauge: "gauge", Histogram: "histogram",
        TimeSeries: "gauge",
    }

    def __init__(self) -> None:
        #: name -> (type string, help, {label tuple -> metric})
        self._families: Dict[str, Tuple[str, str, Dict[tuple, Any]]] = {}

    def _child(self, cls, name: str, help: str, labels: Dict[str, Any],
               **kwargs: Any):
        fam = self._families.get(name)
        if fam is None:
            fam = (self._TYPES[cls], help, {})
            self._families[name] = fam
        key = tuple(sorted(labels.items()))
        child = fam[2].get(key)
        if child is None:
            child = cls(**kwargs)
            fam[2][key] = child
        elif not isinstance(child, cls):
            raise TypeError(
                f"metric {name!r}{labels} already registered as "
                f"{type(child).__name__}"
            )
        return child

    def counter(self, name: str, help: str = "", **labels: Any) -> Counter:
        return self._child(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", **labels: Any) -> Gauge:
        return self._child(Gauge, name, help, labels)

    def histogram(self, name: str, help: str = "",
                  buckets: Iterable[float] = DURATION_BUCKETS,
                  **labels: Any) -> Histogram:
        return self._child(Histogram, name, help, labels, buckets=buckets)

    def time_series(self, name: str, help: str = "", **labels: Any) -> TimeSeries:
        return self._child(TimeSeries, name, help, labels)

    def render(self) -> str:
        """Prometheus text-exposition snapshot of every family."""
        lines: List[str] = []
        for name in sorted(self._families):
            mtype, help, children = self._families[name]
            if help:
                lines.append(f"# HELP {name} {help}")
            lines.append(f"# TYPE {name} {mtype}")
            for key in sorted(children, key=str):
                labels = _format_labels(dict(key))
                for sample_name, value in children[key].samples(name, labels):
                    lines.append(f"{sample_name} {_format_value(value)}")
        return "\n".join(lines) + "\n"


class SimObserver:
    """The :attr:`Simulator.obs` hook: counts dispatched events and
    tracks the latest sim time seen."""

    __slots__ = ("events", "clock")

    def __init__(self, events: Counter, clock: Gauge) -> None:
        self.events = events
        self.clock = clock

    def on_event(self, t: float) -> None:
        self.events.inc()
        self.clock.set(t)


def attach(runtime, registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Wire a :class:`~repro.core.runtime.PandaRuntime` (or the
    baseline runtime -- anything with ``sim``/``network`` and either
    ``filesystems`` or ``servers``) into ``registry``.

    Attaches passive observers to the event loop, every disk arm,
    every out/in link and every mailbox.  Safe to call before or
    between runs; observers accumulate across runs on one runtime.
    """
    reg = registry if registry is not None else MetricsRegistry()
    runtime.sim.obs = SimObserver(
        reg.counter("panda_sim_events_total", "events dispatched"),
        reg.gauge("panda_sim_now_seconds", "latest simulated time"),
    )
    if hasattr(runtime, "filesystems"):
        filesystems = runtime.filesystems
    else:  # BaselineRuntime keeps one fs per server
        filesystems = [s.fs for s in runtime.servers]
    now = runtime.sim.now
    for i, fs in enumerate(filesystems):
        ts = reg.time_series(
            "panda_disk_arm_in_use", "disk arm occupancy", disk=str(i),
        )
        # seed at attach time so time-weighted means cover the full run
        ts.sample(now, fs.disk.arm.in_use)
        fs.disk.arm.obs = ts
    net = runtime.network
    for r, link in enumerate(net.out_links):
        ts = reg.time_series(
            "panda_link_in_use", "link occupancy", link=f"out[{r}]",
        )
        ts.sample(now, link.in_use)
        link.obs = ts
    for r, link in enumerate(net.in_links):
        ts = reg.time_series(
            "panda_link_in_use", "link occupancy", link=f"in[{r}]",
        )
        ts.sample(now, link.in_use)
        link.obs = ts
    for r, box in enumerate(net.mailboxes):
        ts = reg.time_series(
            "panda_mailbox_depth", "queued messages", rank=str(r),
        )
        ts.sample(now, len(box))
        box.obs = ts
    return reg


#: (trace kind, histogram name, detail key, buckets)
_TRACE_HISTOGRAMS = (
    ("disk_read", "panda_disk_service_seconds", "service", DURATION_BUCKETS),
    ("disk_write", "panda_disk_service_seconds", "service", DURATION_BUCKETS),
    ("disk_read", "panda_disk_wait_seconds", "wait", DURATION_BUCKETS),
    ("disk_write", "panda_disk_wait_seconds", "wait", DURATION_BUCKETS),
    ("disk_read", "panda_disk_request_bytes", "nbytes", SIZE_BUCKETS),
    ("disk_write", "panda_disk_request_bytes", "nbytes", SIZE_BUCKETS),
    ("net_xfer", "panda_net_xfer_bytes", "nbytes", SIZE_BUCKETS),
    ("net_xfer", "panda_net_xfer_seconds", "service", DURATION_BUCKETS),
    ("srv_gather", "panda_gather_seconds", "service", DURATION_BUCKETS),
    ("srv_scatter", "panda_scatter_seconds", "service", DURATION_BUCKETS),
    ("sched_enqueue", "panda_sched_queue_depth", "qlen", COUNT_BUCKETS),
    ("sched_admit", "panda_sched_queue_wait_seconds", "wait",
     DURATION_BUCKETS),
    ("sched_done", "panda_sched_service_seconds", "service",
     DURATION_BUCKETS),
    ("sched_done", "panda_sched_turnaround_seconds", "turnaround",
     DURATION_BUCKETS),
)


def observe_trace(trace: Trace, registry: Optional[MetricsRegistry] = None,
                  ) -> MetricsRegistry:
    """Back-fill histograms (and per-kind counters) from a finished
    trace.

    Scheduler records from a sharded run (``SchedulerConfig.n_shards >
    1``) carry their admitting shard; it becomes a ``shard`` label so
    queue depth, admission latency and service time break out per shard
    master.  Single-master traces carry no shard key and keep their
    historical label set.
    """
    reg = registry if registry is not None else MetricsRegistry()
    rules: Dict[str, list] = {}
    for kind, name, key, buckets in _TRACE_HISTOGRAMS:
        rules.setdefault(kind, []).append((name, key, buckets))
    for rec in trace.records:
        reg.counter(
            "panda_trace_records_total", "trace records by kind",
            kind=rec.kind,
        ).inc()
        labels = {"op": rec.kind}
        if "shard" in rec.detail:
            labels["shard"] = str(rec.detail["shard"])
        for name, key, buckets in rules.get(rec.kind, ()):
            value = rec.detail.get(key)
            if value is not None:
                reg.histogram(
                    name, "", buckets=buckets, **labels,
                ).observe(value)
    return reg
