"""The disk/file-system timing model.

One :class:`DiskModel` per I/O node.  Requests are served FIFO by a
capacity-1 resource (the disk arm / JFS request queue).  Each request
costs :meth:`MachineSpec.fs_time`: a fixed per-request overhead (the
two-point calibration against the measured AIX peaks) plus streaming
at the raw disk rate, plus a seek penalty when the request is not
sequential with the previous one.

Sequentiality: a request is sequential when it targets the same path
as, and starts exactly at the ending offset of, the previous request
of the same direction-agnostic stream on this disk.  That matches the
behaviour Panda relies on: "If files are laid out more-or-less
sequentially on disk ... sequential file reads will translate to
inexpensive sequential disk reads".

In ``fast_disk`` mode (the paper's infinitely-fast-disk experiments)
requests cost zero time but still pass through the store, so data
correctness is unaffected.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.machine import MachineSpec
from repro.sim import Resource, Simulator
from repro.sim.trace import Trace

__all__ = ["DiskModel"]


class DiskModel:
    """Timing + contention model for one I/O node's disk."""

    def __init__(
        self,
        sim: Simulator,
        spec: MachineSpec,
        node: str = "disk",
        trace: Optional[Trace] = None,
        injector=None,
    ) -> None:
        self.sim = sim
        self.spec = spec
        self.node = node
        self.trace = trace
        #: optional :class:`repro.faults.FaultInjector`; when set, each
        #: request may fail transiently (see :meth:`access`).
        self.injector = injector
        self.arm = Resource(sim, 1, name=f"{node}.arm")
        self._head: Optional[Tuple[str, int]] = None  # (path, next offset)
        # accounting
        self.requests = 0
        self.sequential_requests = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self.busy_seconds = 0.0

    def is_sequential(self, path: str, offset: int) -> bool:
        return self._head is not None and self._head == (path, offset)

    def access(self, path: str, offset: int, nbytes: int, *, write: bool):
        """Process helper: perform one timed request.  Holds the disk
        arm for the full service time.

        Under fault injection a request may fail transiently: it costs
        the per-request overhead (the arm moved, no data streamed),
        leaves the head position unknown, and raises
        :class:`~repro.faults.TransientDiskError` -- the caller's retry
        loop (:class:`repro.fs.filesystem.FileHandle`) takes it from
        there."""
        t_arrive = self.sim.now
        yield self.arm.acquire()
        try:
            if self.injector is not None and self.injector.disk_fault(self.node):
                from repro.faults import TransientDiskError

                # one unit of per-request overhead, no data streamed
                # (zero in fast_disk mode, like every other fs cost)
                t = self.spec.fs_time(1, write=write, sequential=True)
                if t > 0:
                    yield t
                self.requests += 1
                self.busy_seconds += t
                self._head = None
                raise TransientDiskError(
                    f"{self.node}: transient {'write' if write else 'read'} "
                    f"error at {path!r}+{offset}"
                )
            sequential = self.is_sequential(path, offset)
            t = self.spec.fs_time(nbytes, write=write, sequential=sequential)
            if t > 0:
                yield t
            self._head = (path, offset + nbytes)
            self.requests += 1
            self.sequential_requests += 1 if sequential else 0
            self.busy_seconds += t
            if write:
                self.bytes_written += nbytes
            else:
                self.bytes_read += nbytes
            if self.trace is not None:
                self.trace.emit(
                    self.sim.now,
                    self.node,
                    "disk_write" if write else "disk_read",
                    path=path,
                    offset=offset,
                    nbytes=nbytes,
                    sequential=sequential,
                    service=t,
                    wait=max(self.sim.now - t - t_arrive, 0.0),
                )
        finally:
            self.arm.release()
