"""Server I/O plan formation.

"The master server then informs all the other servers of the schema
information, and each server plans how it will request or send its
chunks of the array data to or from the relevant clients."  (paper,
section 2)

A plan is formed *independently* by every server from the
:class:`~repro.core.protocol.CollectiveOp` alone -- no server-to-server
communication -- and is fully deterministic, so the read path can
recompute the exact layout the write path produced.

Plan rules (paper, section 2):

- disk chunks are enumerated in canonical order per array and assigned
  round-robin: chunk *i* of every array belongs to server ``i mod S``
  (striping at the *chunk* level, not the disk-block level);
- each assigned chunk is split into sub-chunks of at most
  ``sub_chunk_bytes`` that are consecutive row-major spans of the chunk
  (see :func:`repro.schema.split.split_row_major`);
- within a server's dataset file, sub-chunks appear in plan order:
  arrays in op order, chunks in ascending id, sub-chunks in row-major
  order -- so one collective write is one strictly sequential stream.

:func:`locate_chunk` exposes the inverse mapping (array, chunk) ->
(server, file region) used by tests, examples, and external-consumer
tooling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.config import PandaConfig
from repro.core.protocol import CollectiveOp
from repro.counters import COUNTERS
from repro.schema.regions import Region
from repro.schema.split import split_row_major

__all__ = [
    "SubchunkPlan",
    "ServerPlan",
    "build_server_plan",
    "clear_plan_cache",
    "dataset_file",
    "locate_chunk",
    "op_participants",
]


def dataset_file(dataset: str, server_index: int) -> str:
    """File name a server uses for a dataset.  One file per (dataset,
    server); the ``.schema`` metadata lives beside it (see
    :class:`repro.core.runtime.PandaRuntime`)."""
    return f"{dataset}.s{server_index}.panda"


@dataclass(frozen=True)
class SubchunkPlan:
    """One sub-chunk: the unit of disk I/O and of client gathering."""

    array_index: int
    chunk_index: int
    #: global region covered by this sub-chunk.
    region: Region
    #: byte offset within the server's dataset file.
    file_offset: int
    nbytes: int
    #: sequence number within the server's plan (diagnostics).
    seq: int


@dataclass
class ServerPlan:
    """Everything one server will do for one collective op."""

    op: CollectiveOp
    server_index: int
    n_servers: int
    items: Tuple[SubchunkPlan, ...] = ()

    @property
    def total_bytes(self) -> int:
        return sum(i.nbytes for i in self.items)

    @property
    def file_name(self) -> str:
        return dataset_file(self.op.dataset, self.server_index)

    def chunks_assigned(self) -> List[Tuple[int, int]]:
        """(array_index, chunk_index) pairs this server owns, in order."""
        seen: List[Tuple[int, int]] = []
        for item in self.items:
            key = (item.array_index, item.chunk_index)
            if not seen or seen[-1] != key:
                seen.append(key)
        return seen


class _ShapePlans:
    """Everything the plan layer memoises about one op shape: the
    per-server item tuples, filled lazily (a server asks only for its
    own; the cost model's cold walk asks for all), and the participant
    tuple."""

    __slots__ = ("items", "participants")

    def __init__(self, n_servers: int) -> None:
        self.items: List[Optional[Tuple[SubchunkPlan, ...]]] = \
            [None] * n_servers
        self.participants: Optional[Tuple[int, ...]] = None


#: memo of plans keyed by the plan's true inputs.  An op's id, dataset
#: name and kind never influence the item list -- only the array specs
#: and the striping geometry do -- so a timestep loop (fresh dataset per
#: step, same arrays) computes its plan once.  One entry per *shape*,
#: whatever the server count: a 1024-I/O-node run with two array shapes
#: holds two entries, not 2048.
_PLAN_CACHE: Dict[tuple, _ShapePlans] = {}
_PLAN_CACHE_MAX = 1024


def clear_plan_cache() -> None:
    """Empty the plan memo (see ``repro.bench.profiling.clear_caches``)."""
    _PLAN_CACHE.clear()


def _shape_plans(op: CollectiveOp, n_servers: int,
                 config: PandaConfig) -> _ShapePlans:
    key = (op.arrays, n_servers, config.sub_chunk_bytes)
    entry = _PLAN_CACHE.get(key)
    if entry is None:
        if len(_PLAN_CACHE) >= _PLAN_CACHE_MAX:
            _PLAN_CACHE.clear()
        entry = _PLAN_CACHE[key] = _ShapePlans(n_servers)
    return entry


def _plan_items(
    op: CollectiveOp, server_index: int, n_servers: int, config: PandaConfig
) -> Tuple[SubchunkPlan, ...]:
    per_server = _shape_plans(op, n_servers, config).items
    hit = per_server[server_index]
    if hit is not None:
        COUNTERS.plan_cache_hits += 1
        return hit
    COUNTERS.plan_cache_misses += 1
    items: List[SubchunkPlan] = []
    offset = 0
    seq = 0
    for ai, spec in enumerate(op.arrays):
        sub_bytes = spec.sub_chunk_bytes or config.sub_chunk_bytes
        max_elems = max(1, sub_bytes // spec.itemsize)
        for chunk in spec.disk_schema.chunks():
            if chunk.index % n_servers != server_index:
                continue
            for sub in split_row_major(chunk.region, max_elems):
                nbytes = sub.size * spec.itemsize
                items.append(
                    SubchunkPlan(
                        array_index=ai,
                        chunk_index=chunk.index,
                        region=sub,
                        file_offset=offset,
                        nbytes=nbytes,
                        seq=seq,
                    )
                )
                offset += nbytes
                seq += 1
    frozen = per_server[server_index] = tuple(items)
    return frozen


def op_participants(op: CollectiveOp, n_servers: int,
                    config: PandaConfig) -> Tuple[int, ...]:
    """Server indices with at least one sub-chunk of work for ``op``:
    exactly the servers whose :func:`build_server_plan` is non-empty.

    Server *i* participates iff some non-empty disk chunk has index
    ``i mod n_servers`` (an empty chunk region splits into zero
    sub-chunks, so it contributes no plan items).  Computed from the
    chunk list alone, so sharded admission at 1024 servers does not
    have to form 1024 per-server plans per op shape just to learn who
    has work."""
    entry = _shape_plans(op, n_servers, config)
    if entry.participants is not None:
        return entry.participants
    have_work = [False] * n_servers
    remaining = n_servers
    for spec in op.arrays:
        for chunk in spec.disk_schema.chunks():
            idx = chunk.index % n_servers
            if not have_work[idx] and not chunk.region.empty:
                have_work[idx] = True
                remaining -= 1
        if not remaining:
            break
    entry.participants = tuple(i for i, w in enumerate(have_work) if w)
    return entry.participants


def build_server_plan(
    op: CollectiveOp,
    server_index: int,
    n_servers: int,
    config: PandaConfig,
) -> ServerPlan:
    """Form the deterministic plan for ``server_index`` of ``n_servers``.

    ``items`` is the memoised tuple itself, shared by every plan of the
    same shape."""
    if n_servers < 1:
        raise ValueError("need at least one server")
    if not 0 <= server_index < n_servers:
        raise ValueError(f"server index {server_index} out of range")
    return ServerPlan(
        op=op,
        server_index=server_index,
        n_servers=n_servers,
        items=_plan_items(op, server_index, n_servers, config),
    )


def locate_chunk(
    op: CollectiveOp,
    n_servers: int,
    config: PandaConfig,
    array_index: int,
    chunk_index: int,
) -> Tuple[int, int, int]:
    """Locate a disk chunk in the dataset's server files.

    Returns ``(server_index, file_offset, nbytes)`` of the chunk's first
    sub-chunk and total chunk bytes.  Because sub-chunks of one chunk
    are consecutive in the file, the chunk occupies
    ``[file_offset, file_offset + nbytes)``.
    """
    server_index = chunk_index % n_servers
    plan = build_server_plan(op, server_index, n_servers, config)
    items = [
        i for i in plan.items
        if i.array_index == array_index and i.chunk_index == chunk_index
    ]
    if not items:
        raise KeyError(
            f"array {array_index} chunk {chunk_index} not in dataset "
            f"{op.dataset!r}"
        )
    first = items[0]
    total = sum(i.nbytes for i in items)
    return server_index, first.file_offset, total
