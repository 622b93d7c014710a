"""Panda library configuration.

One :class:`PandaConfig` per runtime.  The defaults are the paper's
experimental settings; the non-default options implement extensions the
paper names explicitly:

- ``nonblocking`` -- "We believe that these throughputs can be improved
  by using non-blocking communication when performing data
  rearrangement" (section 3): servers post all sub-chunk piece requests
  at once and accept replies in any order.
- ``sub_chunk_bytes`` -- "After experimentation, we chose a subchunk
  size of 1 MB for all experiments in this paper" (section 2); the
  ablation benchmark sweeps this.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.scheduler import SchedulerConfig
from repro.faults import FaultSpec
from repro.machine import MB

__all__ = ["PandaConfig"]


@dataclass(frozen=True)
class PandaConfig:
    """Tunable knobs of the Panda library itself (as opposed to the
    machine model, which lives in :class:`repro.machine.MachineSpec`)."""

    #: maximum sub-chunk size in bytes; large disk chunks are broken
    #: into sub-chunks of at most this size on the fly.
    sub_chunk_bytes: int = MB
    #: when True, servers exchange sub-chunk pieces with clients using
    #: non-blocking communication (the paper's future-work extension).
    nonblocking: bool = False
    #: deterministic fault injection + recovery budget (see
    #: :class:`repro.faults.FaultSpec`).  ``None`` disables the fault
    #: model entirely: every fault-free code path and simulated timing
    #: is identical to a build without this subsystem.
    faults: Optional[FaultSpec] = None
    #: inter-op admission control + scheduling (see
    #: :class:`repro.core.scheduler.SchedulerConfig`).  ``None`` (the
    #: default) is the paper's one-op-at-a-time server: the one server
    #: loop under its one-slot discipline, simulated timings
    #: bit-identical to the paper path.  ``SchedulerConfig.n_shards > 1``
    #: partitions the admission plane across several shard masters by
    #: consistent-hashing of dataset names (requires ``n_shards`` <=
    #: the runtime's I/O node count).
    scheduler: Optional[SchedulerConfig] = None

    def __post_init__(self) -> None:
        if self.sub_chunk_bytes < 1:
            raise ValueError("sub_chunk_bytes must be >= 1")
