"""Critical-path analysis of a traced run.

The paper reasons about Panda's performance by asking which resource
saturates: the per-I/O-node disks, the interconnect (gather/scatter
traffic), or neither -- in which case fixed startup costs dominate.
:func:`analyze` extracts exactly that decomposition from a trace.

The run window ``[t0, t_end]`` is partitioned *by construction* into
four phases that sum exactly to the window:

* **startup** -- ``[t0, max srv_plan_ready]``: the request reaching the
  master server, the broadcast to its peers, and independent plan
  formation on every server;
* **disk** -- within the I/O window ``[max srv_plan_ready,
  max srv_io_done]``, the busy time of the *bottleneck* disk (the one
  with the most busy seconds), clipped to the window;
* **gather_scatter** -- the remainder of the I/O window: time the
  bottleneck disk sat idle waiting on network gathers/scatters and
  protocol handling;
* **drain** -- ``[max srv_io_done, t_end]``: completion notifications
  propagating back through the master server and master client.

The verdict compares ``disk`` against ``gather_scatter`` (the network
share) and ``startup + drain`` (the fixed-cost share); the largest
wins.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.obs.records import RECORDS, span_start
from repro.sim.trace import Trace

__all__ = ["CriticalPathReport", "Segment", "analyze"]

#: phase names, in wall-clock order
PHASES = ("startup", "gather_scatter", "disk", "drain")
#: kind -> span field of every record drawn on the disks' tracks
_DISK_SPANS = {kind: row.view.span for kind, row in RECORDS.items()
               if row.view is not None and row.view.process == "disks"}


@dataclass(frozen=True)
class Segment:
    """One hop of the critical chain: ``[start, end]`` spent in
    ``phase`` on ``source`` (a trace source name, or ``""`` for phases
    not attributable to one resource)."""

    start: float
    end: float
    phase: str
    source: str = ""


@dataclass
class CriticalPathReport:
    """Per-phase breakdown of one run window plus the verdict."""

    t0: float
    t_end: float
    #: phase name -> seconds; keys are exactly :data:`PHASES` and the
    #: values sum to ``t_end - t0`` by construction.
    phases: Dict[str, float]
    #: trace source of the busiest disk in the I/O window ("" if no
    #: disk record fell inside it)
    bottleneck_disk: str
    #: per-disk busy seconds inside the I/O window
    disk_busy: Dict[str, float]
    #: "disk-bound" | "network-bound" | "startup-bound"
    verdict: str
    #: the critical chain through the window, startup -> ... -> drain
    chain: List[Segment] = field(default_factory=list)

    @property
    def total(self) -> float:
        return self.t_end - self.t0

    def share(self, phase: str) -> float:
        return self.phases[phase] / self.total if self.total > 0 else 0.0

    def verdict_line(self) -> str:
        return (
            f"critical path: {self.verdict} "
            f"(disk {self.share('disk'):.0%} / "
            f"gather-scatter {self.share('gather_scatter'):.0%} / "
            f"startup+drain "
            f"{self.share('startup') + self.share('drain'):.0%})"
        )

    def render(self) -> str:
        lines = [
            f"critical path over [{self.t0:.6f}, {self.t_end:.6f}] "
            f"({self.total:.6f} s):"
        ]
        for name in PHASES:
            lines.append(
                f"  {name:14s} {self.phases[name]:10.6f} s "
                f"({self.share(name):6.1%})"
            )
        if self.bottleneck_disk:
            lines.append(f"  bottleneck disk: {self.bottleneck_disk}")
            for src in sorted(self.disk_busy):
                lines.append(
                    f"    {src:16s} busy {self.disk_busy[src]:10.6f} s"
                )
        lines.append(f"  verdict: {self.verdict}")
        return "\n".join(lines)


def analyze(trace: Optional[Trace], t0: float, t_end: float) -> CriticalPathReport:
    """Partition ``[t0, t_end]`` of ``trace`` into phases and pick the
    bottleneck.  Records outside the window are ignored, so a runtime
    run several times can analyze each run's own slice."""
    if t_end < t0:
        raise ValueError(f"empty window: t_end {t_end} < t0 {t0}")
    in_window = (
        [r for r in trace.records if t0 <= r.time <= t_end]
        if trace is not None else []
    )
    plan_times = [r.time for r in in_window if r.kind == "srv_plan_ready"]
    io_times = [r.time for r in in_window if r.kind == "srv_io_done"]
    t_plan = max(plan_times) if plan_times else t0
    t_io = max(io_times) if io_times else t_plan
    t_io = max(t_io, t_plan)  # a window with no I/O degenerates cleanly

    # every disk's busy spans, clipped to the I/O window
    spans: Dict[str, List[Tuple[float, float]]] = {}
    for time, source, kind, detail in [r for r in in_window if r.kind in _DISK_SPANS]:
        s = max(span_start(time, detail, _DISK_SPANS[kind]), t_plan)
        e = min(time, t_io)
        if e > s:
            spans.setdefault(source, []).append((s, e))
    for lst in spans.values():
        lst.sort()
    disk_busy = {
        src: sum(e - s for s, e in lst) for src, lst in spans.items()
    }
    if disk_busy:
        bottleneck = max(sorted(disk_busy), key=lambda s: disk_busy[s])
        busy = min(disk_busy[bottleneck], t_io - t_plan)
    else:
        bottleneck, busy = "", 0.0

    phases = {
        "startup": t_plan - t0,
        "disk": busy,
        "gather_scatter": (t_io - t_plan) - busy,
        "drain": t_end - t_io,
    }

    fixed = phases["startup"] + phases["drain"]
    if phases["disk"] > phases["gather_scatter"] and phases["disk"] > fixed:
        verdict = "disk-bound"
    elif phases["gather_scatter"] > fixed:
        verdict = "network-bound"
    else:
        # ties (including the empty window) fall through to the
        # fixed-cost verdict: nothing else demonstrably dominated
        verdict = "startup-bound"

    chain = _build_chain(t0, t_plan, t_io, t_end, spans.get(bottleneck, []),
                         bottleneck)
    return CriticalPathReport(
        t0=t0, t_end=t_end, phases=phases, bottleneck_disk=bottleneck,
        disk_busy=disk_busy, verdict=verdict, chain=chain,
    )


def _build_chain(t0: float, t_plan: float, t_io: float, t_end: float,
                 spans: List[Tuple[float, float]], disk: str) -> List[Segment]:
    """The critical chain: startup, then the bottleneck disk's busy
    spans with the gaps between them attributed to gather/scatter,
    then the drain.  Segments tile ``[t0, t_end]`` exactly."""
    chain: List[Segment] = []
    if t_plan > t0:
        chain.append(Segment(t0, t_plan, "startup", "servers"))
    cursor = t_plan
    for s, e in _merge(spans):
        if s > cursor:
            chain.append(Segment(cursor, s, "gather_scatter", "net"))
        chain.append(Segment(s, e, "disk", disk))
        cursor = e
    if t_io > cursor:
        chain.append(Segment(cursor, t_io, "gather_scatter", "net"))
    if t_end > t_io:
        chain.append(Segment(t_io, t_end, "drain", "servers"))
    return chain


def _merge(spans: List[Tuple[float, float]]) -> List[Tuple[float, float]]:
    """Coalesce overlapping/adjacent sorted spans."""
    out: List[Tuple[float, float]] = []
    for s, e in spans:
        if out and s <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], e))
        else:
            out.append((s, e))
    return out
