"""Post-run utilization and traffic statistics.

The paper reasons about Panda's performance in terms of which resource
saturates -- the per-I/O-node disk, the per-node network links, or
neither (startup-bound).  :func:`utilization` extracts exactly that
accounting from a finished :class:`~repro.core.runtime.PandaRuntime`,
so examples and tests can *show* the bottleneck rather than argue it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

__all__ = ["RunStats", "utilization"]


@dataclass(frozen=True)
class RunStats:
    """Resource accounting for one runtime over its whole history."""

    sim_time: float
    #: per-server disk busy seconds and derived utilization
    disk_busy: Tuple[float, ...]
    #: bytes written / read per server's disk
    disk_written: Tuple[int, ...]
    disk_read: Tuple[int, ...]
    #: total messages and payload bytes that crossed the network
    messages: int
    network_bytes: int
    #: sequential fraction of all disk requests, per server
    sequential_fraction: Tuple[float, ...]

    @property
    def disk_utilization(self) -> Tuple[float, ...]:
        if self.sim_time <= 0:
            return tuple(0.0 for _ in self.disk_busy)
        return tuple(b / self.sim_time for b in self.disk_busy)

    def summary(self) -> str:
        util = ", ".join(f"{u:.0%}" for u in self.disk_utilization)
        seq = ", ".join(f"{s:.0%}" for s in self.sequential_fraction)
        return (
            f"sim time {self.sim_time:.3f} s; disk util [{util}]; "
            f"sequential [{seq}]; {self.messages} messages, "
            f"{self.network_bytes} network bytes"
        )


def utilization(runtime) -> RunStats:
    """Collect :class:`RunStats` from a Panda (or baseline) runtime."""
    disks = []
    if hasattr(runtime, "filesystems"):
        disks = [fs.disk for fs in runtime.filesystems]
    elif hasattr(runtime, "servers"):  # BaselineRuntime
        disks = [s.fs.disk for s in runtime.servers]
    seq = tuple(
        (d.sequential_requests / d.requests) if d.requests else 0.0
        for d in disks
    )
    return RunStats(
        sim_time=runtime.sim.now,
        disk_busy=tuple(d.busy_seconds for d in disks),
        disk_written=tuple(d.bytes_written for d in disks),
        disk_read=tuple(d.bytes_read for d in disks),
        messages=runtime.network.messages_sent,
        network_bytes=runtime.network.bytes_sent,
        sequential_fraction=seq,
    )
