"""Every trace record kind, described once.

:data:`RECORDS` has one row per kind a traced run emits: the layer
that emits it, its detail fields, its Chrome view and the histograms
it feeds.  The Chrome export, :func:`~repro.obs.metrics.observe_trace`
and the critical path read it, and panda-lint's PL105 holds every emit
site to it.  The decision records (faults, retries, recovery,
shedding, aborts) have no view: they are counted, not drawn.

A record carries its completion time.  A view's ``span`` names the
detail field whose seconds end there (``[time - detail[span], time]``),
is ``None`` for an instant, or is :data:`PHASE` for an op phase mark:
``[the previous mark of its (source, op_id), time]``, named by the
phase the mark ends (``""`` opens the op).
"""

from __future__ import annotations

import re
from typing import Any, Callable, Dict, NamedTuple, Optional, Tuple, Union

__all__ = ["RECORDS", "Record", "View", "PHASE", "span_start"]

#: histogram buckets: durations in simulated seconds, request sizes in
#: bytes, small counts (queue depths)
DURATION_BUCKETS = (1e-5, 1e-4, 1e-3, 5e-3, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0)
SIZE_BUCKETS = (512, 4096, 32768, 65536, 262144, 1048576, 4194304, 16777216)
COUNT_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256)

PHASE = "phase"


class View(NamedTuple):
    """Drawn on ``process``, one event per ``(tid, thread name)`` of
    ``tracks(source, detail)``, named ``name`` or ``name(detail)``,
    with ``args(source, detail)``."""

    process: str
    tracks: Callable[[str, dict], Tuple[Tuple[int, str], ...]]
    name: Union[str, Callable[[dict], str]]
    cat: str
    span: Optional[str]
    args: Callable[[str, dict], Dict[str, Any]]


class Record(NamedTuple):
    """One kind; ``histograms`` are ``(detail field, metric, buckets)``."""

    layer: str
    fields: Tuple[str, ...]
    view: Optional[View] = None
    histograms: Tuple[Tuple[str, str, tuple], ...] = ()


def span_start(time: float, detail: dict, span: str) -> float:
    """The start of a span whose ``detail[span]`` seconds end at ``time``."""
    return time - detail.get(span, 0.0)


_NUM = re.compile(r"(\d+)")


def _by_source(source: str, d: dict) -> Tuple[Tuple[int, str], ...]:
    """One track per resource, numbered as its source ("server3" -> 3)."""
    m = _NUM.search(source)
    return ((int(m.group(1)) if m else 0, source),)


def _op_track(source: str, d: dict) -> Tuple[Tuple[int, str], ...]:
    return ((d["admit_seq"], f"op{d['admit_seq']} {d.get('dataset')}"),)


def _keys(*keys: str) -> Callable[[str, dict], Dict[str, Any]]:
    return lambda source, d: {k: d.get(k) for k in keys}


def _scalars(source: str, d: dict) -> Dict[str, Any]:
    return {"source": source,
            **{k: v for k, v in d.items() if isinstance(v, (int, float, str, bool))}}


def _disk(kind: str) -> Record:
    return Record("fs.disk", ("path", "offset", "nbytes", "sequential", "service", "wait"),
                  View("disks", _by_source, kind, "disk", "service",
                       _keys("path", "offset", "nbytes", "sequential", "wait")),
                  (("service", "panda_disk_service_seconds", DURATION_BUCKETS),
                   ("wait", "panda_disk_wait_seconds", DURATION_BUCKETS),
                   ("nbytes", "panda_disk_request_bytes", SIZE_BUCKETS)))


def _gather(name: str) -> Record:
    return Record("core.server", ("op_id", "seq", "nbytes", "pieces", "service"),
                  View("servers", _by_source, name, "server", "service",
                       _keys("op_id", "seq", "nbytes", "pieces")),
                  (("service", f"panda_{name}_seconds", DURATION_BUCKETS),))


def _phase(layer: str, process: str, ends: str, *fields: str) -> Record:
    """An op phase mark ending phase ``ends``."""
    return Record(layer, ("op_id",) + fields,
                  View(process, _by_source, ends, "op", PHASE,
                       lambda source, d: {"op_id": d.get("op_id"), "source": source}))


_XFER = ("src", "dst", "tag", "nbytes")
_SCHED = ("admit_seq", "op_id", "dataset")  # and "shard" when sharded
_in_link = lambda d: (2 * d["dst"] + 1, f"in[{d['dst']}]")
# instants on the runtime row's fixed tracks
_FS = lambda kind: View("runtime", lambda source, d: ((1, "filesystem"),), kind, "fs", None,
                        _scalars)
_RUN = lambda kind: View("runtime", lambda source, d: ((0, "run"),), kind, "run", None,
                         lambda source, d: dict(d))

RECORDS: Dict[str, Record] = {
    "disk_read": _disk("disk_read"),
    "disk_write": _disk("disk_write"),
    "cache_flush": Record("fs.cache", ("path", "offset", "nbytes", "blocks"), _FS("cache_flush")),
    "fsync": Record("fs.filesystem", ("path",), _FS("fsync")),
    "net_xfer": Record(
        "mpi.network", _XFER + ("service",),
        View("links", lambda source, d: ((2 * d["src"], f"out[{d['src']}]"), _in_link(d)),
             lambda d: f"xfer {d['src']}->{d['dst']}", "net", "service", _keys(*_XFER)),
        (("nbytes", "panda_net_xfer_bytes", SIZE_BUCKETS),
         ("service", "panda_net_xfer_seconds", DURATION_BUCKETS))),
    "message": Record("mpi.network", _XFER, View(
        "links", lambda source, d: (_in_link(d),), "deliver", "net", None, _keys(*_XFER))),
    "run_start": Record("core.runtime", ("n_compute", "n_io", "n_apps"), _RUN("run_start")),
    "run_end": Record("core.runtime", ("elapsed",), _RUN("run_end")),
    "mailbox_purged": Record("core.runtime", ("server_index", "dropped")),
    "srv_op_start": _phase("core.server", "servers", "", "kind"),
    "srv_plan_ready": _phase("core.server", "servers", "plan"),
    "srv_gather": _gather("gather"),
    "srv_scatter": _gather("scatter"),
    "srv_io_done": _phase("core.server", "servers", "io", "moved"),
    "srv_op_done": _phase("core.server", "servers", "sync"),
    "srv_op_aborted": Record("core.server", ("op_id", "shard")),
    "sched_enqueue": Record(
        "core.server", _SCHED + ("kind", "qlen", "demoted"),
        View("scheduler", _op_track, "enqueue", "sched", None,
             _keys("op_id", "dataset", "kind", "qlen")),
        (("qlen", "panda_sched_queue_depth", COUNT_BUCKETS),)),
    "sched_admit": Record(
        "core.server", _SCHED + ("wait", "in_flight"),
        View("scheduler", _op_track, "queued", "sched", "wait",
             _keys("op_id", "dataset", "in_flight")),
        (("wait", "panda_sched_queue_wait_seconds", DURATION_BUCKETS),)),
    "sched_done": Record(
        "core.server", _SCHED + ("moved", "service", "turnaround"),
        View("scheduler", _op_track, "in-flight", "sched", "service",
             _keys("op_id", "dataset", "moved", "turnaround")),
        (("service", "panda_sched_service_seconds", DURATION_BUCKETS),
         ("turnaround", "panda_sched_turnaround_seconds", DURATION_BUCKETS))),
    "sched_reject": Record("core.server", ("op_id", "dataset", "tenant", "p99", "budget")),
    "cli_op_start": _phase("core.client", "clients", "", "kind"),
    "cli_serve": Record(
        "core.client", ("op_id", "kind", "nbytes", "service"),
        View("clients", _by_source, lambda d: f"serve {d.get('kind')}", "client", "service",
             _keys("op_id", "nbytes"))),
    "cli_op_done": _phase("core.client", "clients", "collective", "kind"),
    "cli_op_rejected": Record("core.client", ("op_id", "dataset", "tenant")),
    "cli_request_retry": Record("core.client", ("op_id", "owner_rank")),
    "cli_no_live_shard": Record("core.client", ("op_id", "dataset")),
    "fault_msg_drop": Record("faults", _XFER),
    "fault_msg_delay": Record("faults", _XFER + ("delay",)),
    "fault_disk": Record("faults", ("node",)),
    # ``what`` names the retried exchange; the rest is its own context
    "fault_retry": Record("faults", ("what",)),
    "fault_crash": Record("faults", ("server",)),
    "recovery": Record("faults", ("mode", "dataset", "crashed", "survivors", "nbytes")),
}
