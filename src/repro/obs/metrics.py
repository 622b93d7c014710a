"""A labeled metrics registry with Prometheus-style text snapshots.

Metrics here measure the *simulated* system, in simulated seconds --
they are not host-side counts (that is :mod:`repro.counters`).
Watching is free: :func:`attach` hooks nothing into the run.  It
registers live views that read, at :meth:`MetricsRegistry.render`
time, the accounting the machine keeps anyway -- the event loop's
dispatch count and clock, and each :class:`~repro.sim.Resource`'s and
:class:`~repro.sim.Store`'s occupancy integral, last change and peak
(their ``occupancy()``) -- so simulated timings are unaffected and an
unwatched run pays nothing.

Metric kinds:

* :class:`Counter` -- monotonically increasing count;
* :class:`Gauge` -- a value that goes up and down;
* :class:`Histogram` -- bucketed observations (Prometheus cumulative
  ``le`` convention);
* :class:`Live` -- a value read from the machine at render time;
  :class:`Occupancy` renders a resource's or store's occupancy as
  last/time-weighted-mean/max gauges.

:func:`attach` wires a full :class:`~repro.core.runtime.PandaRuntime`
(disk arms, out/in links, mailboxes, the event loop); call
:meth:`MetricsRegistry.render` after the run for the snapshot.
:func:`observe_trace` back-fills the histograms each record kind's
row of :data:`~repro.obs.records.RECORDS` names from a finished
:class:`~repro.sim.trace.Trace`.
"""

from __future__ import annotations

import bisect
import itertools
import math
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.obs.records import DURATION_BUCKETS, RECORDS
from repro.sim.trace import Trace

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Live",
    "Occupancy",
    "MetricsRegistry",
    "attach",
    "observe_trace",
]

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


class Live:
    """A value read from the machine at render time: ``read()``."""

    __slots__ = ("read",)

    def __init__(self, read: Callable[[], Any]) -> None:
        self.read = read

    def samples(self, name: str, labels: str) -> List[Tuple[str, float]]:
        return [(f"{name}{labels}", self.read())]


class Occupancy(Live):
    """A live occupancy: ``read()`` is a :class:`~repro.sim.Resource`'s
    or :class:`~repro.sim.Store`'s ``occupancy()``, rendered as the
    current value, the peak and the time-weighted mean over ``[0, last
    change]``."""

    __slots__ = ()

    def samples(self, name: str, labels: str) -> List[Tuple[str, float]]:
        last, area, t_last, peak = self.read()
        return [
            (f"{name}{labels}", last),
            (f"{name}_max{labels}", peak),
            (f"{name}_mean{labels}", area / t_last if t_last > 0 else last),
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

    def __init__(self) -> None:
        #: name -> (type string, help, {label tuple -> metric})
        self._families: Dict[str, Tuple[str, str, Dict[tuple, Any]]] = {}

    def _child(self, cls, mtype: str, name: str, help: str,
               labels: Dict[str, Any], **kwargs: Any):
        fam = self._families.get(name)
        if fam is None:
            fam = (mtype, help, {})
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
        return self._child(Counter, "counter", name, help, labels)

    def gauge(self, name: str, help: str = "", **labels: Any) -> Gauge:
        return self._child(Gauge, "gauge", name, help, labels)

    def histogram(self, name: str, help: str = "",
                  buckets: Iterable[float] = DURATION_BUCKETS,
                  **labels: Any) -> Histogram:
        return self._child(Histogram, "histogram", name, help, labels,
                           buckets=buckets)

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


def attach(runtime, registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Register live views of a fresh
    :class:`~repro.core.runtime.PandaRuntime` in ``registry``: its
    event loop, every disk arm, every out/in link and every mailbox.

    Nothing is hooked into the run; each view reads the runtime's own
    accounting when the registry renders, so the snapshot covers the
    runtime's whole history from t=0 across all its runs.  Raises
    :class:`ValueError` once the clock has advanced, as
    :class:`~repro.replay.TraceRecorder` does.
    """
    sim = runtime.sim
    if sim.now != 0.0:
        raise ValueError(
            "attach metrics before the runtime's first run: occupancy "
            "means cover the run from t=0"
        )
    reg = registry if registry is not None else MetricsRegistry()
    reg._child(Live, "counter", "panda_sim_events_total",
               "events dispatched", {}, read=lambda: sim.dispatched)
    reg._child(Live, "gauge", "panda_sim_now_seconds",
               "latest simulated time", {}, read=lambda: sim.now)
    for i, fs in enumerate(runtime.filesystems):
        reg._child(Occupancy, "gauge", "panda_disk_arm_in_use",
                   "disk arm occupancy", {"disk": str(i)},
                   read=fs.disk.arm.occupancy)
    net = runtime.network
    for side, links in (("out", net.out_links), ("in", net.in_links)):
        for r, link in enumerate(links):
            reg._child(Occupancy, "gauge", "panda_link_in_use",
                       "link occupancy", {"link": f"{side}[{r}]"},
                       read=link.occupancy)
    for r, box in enumerate(net.mailboxes):
        reg._child(Occupancy, "gauge", "panda_mailbox_depth",
                   "queued messages", {"rank": str(r)}, read=box.occupancy)
    return reg


def observe_trace(trace: Trace, registry: Optional[MetricsRegistry] = None,
                  ) -> MetricsRegistry:
    """Back-fill per-kind counters, and the histograms each kind's
    :data:`~repro.obs.records.RECORDS` row names, from a finished
    trace.

    Scheduler records from a sharded run (``SchedulerConfig.n_shards >
    1``) carry their admitting shard; it becomes a ``shard`` label so
    queue depth, admission latency and service time break out per shard
    master.  Single-master traces carry no shard key and keep their
    historical label set.
    """
    reg = registry if registry is not None else MetricsRegistry()
    for _time, _source, kind, detail in trace.records:
        reg.counter("panda_trace_records_total", "trace records by kind", kind=kind).inc()
        row = RECORDS.get(kind)
        if row is None or not row.histograms:
            continue
        labels = {"op": kind}
        if "shard" in detail:
            labels["shard"] = str(detail["shard"])
        for key, name, buckets in row.histograms:
            value = detail.get(key)
            if value is not None:
                reg.histogram(name, "", buckets=buckets, **labels).observe(value)
    return reg
