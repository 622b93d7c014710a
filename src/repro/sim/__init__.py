"""Discrete-event simulation substrate.

A compact generator-based discrete-event engine in the style of SimPy,
purpose-built for this reproduction: deterministic ordering, virtual
time in seconds, and the small set of synchronisation primitives the
message-passing and file-system models need.

Public surface:

- :class:`Simulator` -- the event loop and virtual clock.
- :class:`Process` -- a running coroutine, spawned from a generator.
- :class:`Event`, :class:`Timeout`, :class:`AllOf`, :class:`AnyOf` --
  waitables a process may ``yield``; a process charges time by
  yielding a ``float`` of seconds.
- :class:`Resource` -- FIFO server with fixed capacity (link/disk
  contention).
- :class:`Store` -- FIFO message queue with blocking get (mailboxes).
- :class:`Interrupt`, :class:`SimulationError` -- failure plumbing.
- :class:`Trace` -- optional structured event trace for debugging and
  for the statistics the benchmark harness collects.
"""

from repro.sim.engine import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)
from repro.sim.resources import Resource, Store
from repro.sim.trace import Trace, TraceRecord

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "Interrupt",
    "Process",
    "Resource",
    "SimulationError",
    "Simulator",
    "Store",
    "Timeout",
    "Trace",
    "TraceRecord",
]
