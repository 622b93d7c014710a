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

Every sub-chunk also carries its **piece rows** (:class:`PieceRow`):
which client holds which piece of it, in how many contiguous runs on
each side and, for real payloads, where the piece sits in the server's
sub-chunk and in the client's chunk.  That is the geometry of the
whole collective, flattened once per server and op shape -- the access
list Thakur, Gropp and Lusk build once per noncontiguous MPI-IO access
-- and the server, the client and the cost model all read it instead of
re-deriving it per sub-chunk.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import PandaConfig
from repro.core.protocol import ArraySpec, CollectiveOp
from repro.counters import COUNTERS
from repro.memo import Memo
from repro.schema.regions import Region, runs_within
from repro.schema.split import split_row_major

__all__ = [
    "PieceRow",
    "SubchunkPlan",
    "ServerPlan",
    "build_server_plan",
    "dataset_file",
    "locate_chunk",
    "op_participants",
]


def dataset_file(dataset: str, server_index: int) -> str:
    """File name a server uses for a dataset.  One file per (dataset,
    server); the ``.schema`` metadata lives beside it (see
    :class:`repro.core.runtime.PandaRuntime`)."""
    return f"{dataset}.s{server_index}.panda"


class PieceRow(NamedTuple):
    """One client's piece of one sub-chunk: a row of the flattened
    piece table.  Rows depend on the op's shape alone, never on its
    client group: the rank holding the piece is
    ``op.client_ranks[row.mesh_index]``."""

    #: memory-mesh position of the client whose chunk holds the piece.
    mesh_index: int
    #: the piece: the sub-chunk's overlap with that client's chunk, in
    #: global coordinates.
    region: Region
    #: contiguous runs of the piece in the sub-chunk's row-major
    #: layout (the server's staging pass) ...
    runs_sub: int
    #: ... and in the client chunk's (> 1: the client packs or unpacks).
    runs_chunk: int
    nbytes: int
    #: real-payload plans only (None otherwise): the piece's local
    #: slices in the sub-chunk buffer ...
    sub_slices: Optional[Tuple[slice, ...]]
    #: ... and in the client's chunk array.
    chunk_slices: Optional[Tuple[slice, ...]]


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
    #: the pieces tiling ``region``, in canonical memory-chunk order.
    #: Recovery re-offsets items with ``dataclasses.replace``, which
    #: carries the rows over unchanged.
    pieces: Tuple[PieceRow, ...] = field(default=(), compare=False,
                                         repr=False)


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


class _ShapePlans:
    """Everything the plan layer memoises about one op shape: the
    per-server item tuples, filled lazily (a server asks only for its
    own; the cost model's cold walk asks for all), and the participant
    tuple.  Items come in two flavours: plain, and for real-payload
    runs with the piece rows' local slices -- the slices are most of a
    row's memory and garbage-collector load, and only the real data
    plane copies through them."""

    __slots__ = ("items", "real_items", "participants")

    def __init__(self, n_servers: int) -> None:
        self.items: List[Optional[Tuple[SubchunkPlan, ...]]] = \
            [None] * n_servers
        self.real_items: List[Optional[Tuple[SubchunkPlan, ...]]] = \
            [None] * n_servers
        self.participants: Optional[Tuple[int, ...]] = None


#: memo of plans keyed by the plan's true inputs.  An op's id, dataset
#: name and kind never influence the item list -- only the array specs
#: and the striping geometry do -- so a timestep loop (fresh dataset per
#: step, same arrays) computes its plan once.  One entry per *shape*,
#: whatever the server count: a 1024-I/O-node run with two array shapes
#: holds two entries, not 2048.
_PLAN_CACHE: Dict[tuple, _ShapePlans] = Memo()


def _shape_plans(op: CollectiveOp, n_servers: int,
                 config: PandaConfig) -> _ShapePlans:
    key = (op.arrays, n_servers, config.sub_chunk_bytes)
    entry = _PLAN_CACHE.get(key)
    if entry is None:
        entry = _PLAN_CACHE[key] = _ShapePlans(n_servers)
    return entry


def _plan_items(
    op: CollectiveOp, server_index: int, n_servers: int, config: PandaConfig,
    real: bool,
) -> Tuple[SubchunkPlan, ...]:
    entry = _shape_plans(op, n_servers, config)
    per_server = entry.real_items if real else entry.items
    hit = per_server[server_index]
    if hit is not None:
        COUNTERS.plan_cache_hits += 1
        return hit
    COUNTERS.plan_cache_misses += 1
    items: List[SubchunkPlan] = []
    offset = 0
    for ai, spec in enumerate(op.arrays):
        sub_bytes = spec.sub_chunk_bytes or config.sub_chunk_bytes
        max_elems = max(1, sub_bytes // spec.itemsize)
        subs: List[Tuple[int, Region]] = [
            (chunk.index, sub)
            for chunk in spec.disk_schema.chunks()
            if chunk.index % n_servers == server_index
            for sub in split_row_major(chunk.region, max_elems)
        ]
        rows = _piece_rows(spec, [sub for _, sub in subs], real)
        for (chunk_index, sub), pieces in zip(subs, rows):
            nbytes = sub.size * spec.itemsize
            items.append(SubchunkPlan(
                array_index=ai, chunk_index=chunk_index, region=sub,
                file_offset=offset, nbytes=nbytes, seq=len(items),
                pieces=pieces,
            ))
            offset += nbytes
    frozen = per_server[server_index] = tuple(items)
    return frozen


def _piece_rows(spec: ArraySpec, subs: Sequence[Region],
                real: bool) -> List[Tuple[PieceRow, ...]]:
    """The piece rows of every sub-chunk in ``subs`` (one array's share
    of one server's plan), in one vectorised pass: one
    :meth:`~repro.schema.chunking.DataSchema.overlaps` batch for all of
    them, then the run counts (and, when ``real``, the local slices) as
    array arithmetic."""
    if not subs:
        return []
    lo = np.array([s.lo for s in subs], dtype=np.int64)
    hi = np.array([s.hi for s in subs], dtype=np.int64)
    query, mesh, o_lo, o_hi, c_lo, c_hi = spec.memory_schema.overlaps(lo, hi)
    s_lo = lo[query]
    runs_sub = runs_within(o_lo, o_hi, s_lo, hi[query])
    runs_chunk = runs_within(o_lo, o_hi, c_lo, c_hi)
    # every int of the rows comes out of one object array, so equal
    # coordinates, run counts and byte counts share one Python int
    n = lo.shape[1]
    ints = _shared_ints(np.column_stack((
        o_lo, o_hi, runs_sub, runs_chunk,
        (o_hi - o_lo).prod(axis=1) * spec.itemsize)))
    regions = list(map(Region._trusted, map(tuple, ints[:, :n].tolist()),
                       map(tuple, ints[:, n:2 * n].tolist())))
    if real:
        sub_slices = _local_slices(o_lo - s_lo, o_hi - s_lo)
        chunk_slices = _local_slices(o_lo - c_lo, o_hi - c_lo)
    else:
        sub_slices = chunk_slices = repeat(None)
    rows = list(map(PieceRow._make, zip(
        mesh.tolist(), regions, *ints[:, 2 * n:].T.tolist(),
        sub_slices, chunk_slices)))
    COUNTERS.piece_rows_built += len(rows)
    out: List[Tuple[PieceRow, ...]] = []
    start = 0
    for end in np.cumsum(np.bincount(query, minlength=len(subs))).tolist():
        out.append(tuple(rows[start:end]))
        start = end
    return out


def _shared_ints(a: np.ndarray) -> np.ndarray:
    """``a`` as an object array of Python ints in which equal values
    are one shared object."""
    values, inverse = np.unique(a, return_inverse=True)
    return np.array(values.tolist(), dtype=object)[inverse.reshape(a.shape)]


def _local_slices(lo: np.ndarray, hi: np.ndarray) -> List[Tuple[slice, ...]]:
    """One tuple of basic-indexing slices per row of ``[lo, hi)``."""
    return list(zip(*(map(slice, lo[:, d].tolist(), hi[:, d].tolist())
                      for d in range(lo.shape[1]))))


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
    real: bool = False,
) -> ServerPlan:
    """Form the deterministic plan for ``server_index`` of ``n_servers``.
    ``real`` asks for the flavour whose piece rows carry their local
    slices, for a runtime that moves real payloads.

    ``items`` is the memoised tuple itself, shared by every plan of the
    same shape and flavour."""
    if n_servers < 1:
        raise ValueError("need at least one server")
    if not 0 <= server_index < n_servers:
        raise ValueError(f"server index {server_index} out of range")
    return ServerPlan(
        op=op,
        server_index=server_index,
        n_servers=n_servers,
        items=_plan_items(op, server_index, n_servers, config, real),
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
