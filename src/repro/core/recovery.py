"""Crash recovery for server-directed collective I/O.

The server-directed plan makes recovery a *pure re-partition*: every
server's plan is a deterministic function of ``(op, server_index,
n_servers, config)``, so when I/O node *k* crashes the master can
recompute exactly what *k* owed and deal it out to the survivors -- no
server state needs to be salvaged from the wreck.  Because clients
still hold the source data for a collective write, and sub-chunk
writes are idempotent (deterministic content at deterministic
offsets), replaying *all* of the crashed server's portion is always
safe -- the master never needs to learn how far the dead server got.

Mechanics
---------
- :func:`partition_recovery` groups the crashed server's sub-chunks by
  disk chunk (so recovery writes stay sequential) and deals the chunk
  groups round-robin over the survivors.  Each survivor's share is
  re-offset contiguously from zero into a dedicated *recovery file*
  (:func:`recovery_file`) on the survivor's own file system.
- The resulting :class:`RecoveryAssignment` tuples travel either
  mid-op (tag RECOVER, wrapped in :class:`RecoverMsg`, after the
  master's failure detector fires while completions are outstanding)
  or up-front in the admission broadcast, as
  :attr:`SchedOp.recoveries <repro.core.scheduler.SchedOp>` next to the
  ``skip`` list (for ops that start after a crash, and for reads of
  datasets that were recovered at write time).
- At commit the master records the assignments in the runtime's
  relocation table: reads of a recovered dataset route the crashed
  index's sub-chunks to the recovery files, and the crashed node's own
  (possibly partial) file is never consulted again.

Server index 0 is assumed reliable, as the paper assumes of its single
master.  With sharded admission (``SchedulerConfig.n_shards > 1``)
shard 0 is the always-live root of the consistent-hash ring; the other
shard masters (indices ``1..n_shards-1``) may crash, and a crashed
shard's queued datasets re-partition onto the surviving masters
(:meth:`repro.core.scheduler.ShardMap.owner` with a ``live`` set).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Sequence, Tuple

from repro.core.config import PandaConfig
from repro.core.plan import SubchunkPlan, build_server_plan
from repro.core.protocol import CollectiveOp

__all__ = [
    "RecoverMsg",
    "RecoveryAssignment",
    "partition_recovery",
    "recovery_file",
]


def recovery_file(dataset: str, crashed_index: int, survivor_index: int) -> str:
    """File a survivor uses for its share of a crashed server's data.
    Lives on the *survivor's* file system; the crashed index only names
    which plan portion the contents came from."""
    return f"{dataset}.s{crashed_index}r{survivor_index}.panda"


@dataclass(frozen=True)
class RecoveryAssignment:
    """One survivor's share of one crashed server's plan.

    ``items`` are the crashed plan's sub-chunks with ``file_offset``
    rewritten to be contiguous from zero in the survivor's recovery
    file; ``seq`` numbers are preserved from the crashed plan, so piece
    exchanges during recovery match exactly like ordinary ones."""

    dataset: str
    crashed_index: int
    survivor_index: int
    items: Tuple[SubchunkPlan, ...]

    @property
    def file_name(self) -> str:
        return recovery_file(self.dataset, self.crashed_index,
                             self.survivor_index)

    @property
    def nbytes(self) -> int:
        return sum(i.nbytes for i in self.items)


@dataclass(frozen=True)
class RecoverMsg:
    """Master server -> survivor, tag RECOVER: execute this recovery
    assignment for ``op`` (mid-op, after the failure detector fired).

    ``reply_to`` is the rank the survivor sends its recovery completion
    to; ``-1`` (the single-master default) means the master server's
    rank.  Sharded admission sets it to the issuing shard master's
    rank, since any shard master may run a mid-op recovery."""

    op: CollectiveOp
    assignment: RecoveryAssignment
    reply_to: int = -1


def partition_recovery(
    op: CollectiveOp,
    crashed_index: int,
    survivors: Sequence[int],
    n_servers: int,
    config: PandaConfig,
    real: bool = False,
) -> Tuple[RecoveryAssignment, ...]:
    """Re-partition the crashed server's plan over ``survivors``.

    Chunk groups (all sub-chunks of one disk chunk, consecutive in the
    crashed plan) are dealt round-robin to the sorted survivors; each
    survivor's share is re-offset contiguously so its recovery file is
    written with one strictly sequential stream, exactly like an
    ordinary server file.  The items keep the crashed plan's piece
    rows (of the flavour ``real`` selects, as for
    :func:`~repro.core.plan.build_server_plan`), so a survivor executes
    them without re-deriving any geometry.
    """
    if crashed_index in survivors:
        raise ValueError(f"server {crashed_index} cannot survive its own crash")
    order = sorted(survivors)
    if not order:
        raise ValueError("no survivors to re-plan onto")
    plan = build_server_plan(op, crashed_index, n_servers, config, real)
    # group consecutive sub-chunks by (array, chunk)
    groups: List[List[SubchunkPlan]] = []
    last_key = None
    for item in plan.items:
        key = (item.array_index, item.chunk_index)
        if key != last_key:
            groups.append([])
            last_key = key
        groups[-1].append(item)
    shares: Dict[int, List[SubchunkPlan]] = {s: [] for s in order}
    for g_idx, group in enumerate(groups):
        shares[order[g_idx % len(order)]].extend(group)
    out = []
    for s in order:
        items = shares[s]
        if not items:
            continue
        offset = 0
        reoffset = []
        for item in items:
            reoffset.append(replace(item, file_offset=offset))
            offset += item.nbytes
        out.append(
            RecoveryAssignment(
                dataset=op.dataset,
                crashed_index=crashed_index,
                survivor_index=s,
                items=tuple(reoffset),
            )
        )
    return tuple(out)
