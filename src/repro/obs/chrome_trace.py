"""Export a traced run to Chrome trace-event JSON (Perfetto-loadable).

The output follows the Trace Event Format: a ``traceEvents`` list of
``"X"`` (complete) spans, ``"i"`` instants and ``"M"`` (metadata)
process/thread-name events, timestamps in microseconds.  Load the file
at https://ui.perfetto.dev or ``chrome://tracing``.

Track layout -- one process row per resource class, one thread row per
simulated resource:

========  ===========================  =============================
pid       process                      threads (tid)
========  ===========================  =============================
1         clients                      one per compute rank
2         servers                      one per I/O server
3         disks                        one per disk arm
4         links                        out[r] and in[r] per rank
5         runtime                      run markers, fsyncs, flushes
6         scheduler                    one per admitted op (admit_seq)
========  ===========================  =============================

One pass over the trace draws each record as its kind's view in
:data:`repro.obs.records.RECORDS` says; kinds with no view are not
exported.  Op phase spans follow every other event, servers first.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from repro.obs.records import PHASE, RECORDS, span_start
from repro.sim.trace import Trace

__all__ = ["to_chrome_trace", "write_chrome_trace"]

#: process rows, in pid order from 1
PROCESSES = ("clients", "servers", "disks", "links", "runtime", "scheduler")
_PID = {name: pid for pid, name in enumerate(PROCESSES, 1)}
#: kind -> (pid, view) of every kind with a view
_VIEWS = {kind: (_PID[row.view.process], row.view)
          for kind, row in RECORDS.items() if row.view is not None}


def to_chrome_trace(trace: Trace, t0: float = 0.0,
                    t_end: Optional[float] = None) -> Dict[str, Any]:
    """Convert ``trace`` to a Chrome trace-event dict (``json.dump``
    ready).  ``[t0, t_end]`` bounds which records are exported (by
    completion time); by default everything is."""
    events: List[Dict[str, Any]] = []
    phases: Dict[int, list] = {_PID["servers"]: [], _PID["clients"]: []}
    threads: Dict[tuple, str] = {}
    opened: Dict[tuple, float] = {}  # (source, op_id) -> its last mark
    for time, source, kind, detail in trace.records:
        if time < t0 or (t_end is not None and time > t_end) or kind not in _VIEWS:
            continue
        pid, view = _VIEWS[kind]
        tracks = view.tracks(source, detail)
        for tid, thread in tracks:
            threads.setdefault((pid, tid), thread)
        name = view.name if isinstance(view.name, str) else view.name(detail)
        if view.span is None:
            args = view.args(source, detail)
            for tid, _ in tracks:
                events.append({"name": name, "cat": view.cat, "ph": "i", "s": "t",
                               "ts": time * 1e6, "pid": pid, "tid": tid, "args": args})
            continue
        out = events
        if view.span == PHASE:
            op = (source, detail.get("op_id"))
            start = opened.get(op)
            opened[op] = time
            if not name or start is None:
                continue
            out = phases[pid]
        else:
            start = span_start(time, detail, view.span)
        args = view.args(source, detail)
        for tid, _ in tracks:
            out.append({"name": name, "cat": view.cat, "ph": "X", "ts": start * 1e6,
                        "dur": max(time - start, 0.0) * 1e6, "pid": pid, "tid": tid,
                        "args": args})
    meta: List[Dict[str, Any]] = [
        {"name": "process_name", "ph": "M", "pid": pid,
         "args": {"name": PROCESSES[pid - 1]}}
        for pid in sorted({pid for pid, _ in threads})]
    meta += [{"name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
              "args": {"name": name}}
             for (pid, tid), name in sorted(threads.items())]
    return {"traceEvents": meta + events + phases[_PID["servers"]]
            + phases[_PID["clients"]], "displayTimeUnit": "ms"}


def write_chrome_trace(trace: Trace, path: str, t0: float = 0.0,
                       t_end: Optional[float] = None) -> None:
    """Write ``trace`` to ``path`` as Chrome trace-event JSON."""
    with open(path, "w") as f:
        json.dump(to_chrome_trace(trace, t0=t0, t_end=t_end), f)
