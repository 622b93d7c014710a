"""Client-directed chunked I/O: the ablation of server direction itself.

Panda's disk layout (chunked schemas, round-robin chunk striping, 1 MB
sub-chunks) and its server-directed flow control are separable ideas.
This baseline keeps the **exact same on-disk layout** -- it reuses
Panda's own `build_server_plan` -- but inverts the control flow back to
a traditional client/server shape: each compute node pushes the
sub-chunk pieces *it* holds, in *its own* traversal order, to the
owning I/O daemons, which write each piece at its planned file offset
as it arrives.

What is lost without server direction:

- servers no longer receive sub-chunks in file order, so their writes
  interleave offsets from many clients and pay seeks;
- a sub-chunk gathered from several clients arrives in fragments that
  must be written (or re-buffered) separately -- we model the honest
  variant where each piece is its own file request, which also makes
  requests smaller than 1 MB whenever memory and disk schemas differ.

Under natural chunking each client's pieces are whole sub-chunks of its
own chunks, so the *per-client* streams are sequential and the damage
is limited to inter-client interleaving; under a reorganising schema
the damage is much larger.  ``bench_server_direction_ablation.py``
quantifies both.

The written files are byte-identical to Panda's (verified by tests), so
datasets written either way are interchangeable.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.baselines.common import BaselineResult, BaselineRuntime, Piece
from repro.core.config import PandaConfig
from repro.core.plan import build_server_plan, dataset_file
from repro.core.protocol import CollectiveOp
from repro.schema.regions import Region

__all__ = ["run_client_directed", "client_piece_schedule"]


def client_piece_schedule(
    op: CollectiveOp,
    n_servers: int,
    config: PandaConfig,
    mesh_position: int,
) -> List[Tuple[int, int, Region, int, int]]:
    """What one client pushes, in its own (array, chunk, sub-chunk)
    order: ``(server, file_offset, piece_region, nbytes, array_index)``
    for every intersection between the client's memory chunks and every
    planned sub-chunk."""
    out = []
    for s in range(n_servers):
        plan = build_server_plan(op, s, n_servers, config)
        for item in plan.items:
            spec = op.arrays[item.array_index]
            my_chunk = spec.memory_schema.chunk(mesh_position).region
            overlap = item.region.intersect(my_chunk)
            if overlap is None:
                continue
            # offset of the piece within the sub-chunk's file extent:
            # pieces of a sub-chunk are disjoint regions; we write each
            # at the offset of its first element within the sub-chunk's
            # row-major order (correct whenever the piece is a prefix of
            # rows -- guaranteed here because pieces span the sub-chunk's
            # trailing dims wherever they are contiguous; for strided
            # pieces each run is written separately below).
            runs = list(overlap.iter_runs_within(item.region))
            for start, elems in runs:
                off = (item.file_offset
                       + item.region.linear_offset_of(start) * spec.itemsize)
                run_region = _run_region(start, elems, item.region)
                out.append((s, off, run_region, elems * spec.itemsize,
                            item.array_index))
    return out


def _run_region(start, elems, container: Region) -> Region:
    off = container.linear_offset_of(start) + elems - 1
    last = container.point_at_linear_offset(off)
    return Region(start, tuple(c + 1 for c in last))


def _pieces(rank: int, rt: BaselineRuntime, op: CollectiveOp,
            config: PandaConfig,
            data: Optional[Dict[int, Dict[str, np.ndarray]]]
            ) -> Iterator[Piece]:
    """Exchange pieces of :func:`client_piece_schedule`, each held by its
    region of the client's chunk in as many runs as that takes."""
    for server, off, region, nbytes, ai in client_piece_schedule(
            op, rt.n_io, config, rank):
        spec = op.arrays[ai]
        chunk = spec.memory_schema.chunk(rank).region
        runs, _ = region.contiguous_runs_within(chunk)
        view = None
        if rt.real_payloads:
            view = data[rank][spec.name][region.relative_to(chunk.lo).slices()]
        yield server, off, nbytes, runs, view


def run_client_directed(
    rt: BaselineRuntime,
    op: CollectiveOp,
    kind: str,
    data: Optional[Dict[int, Dict[str, np.ndarray]]] = None,
    config: Optional[PandaConfig] = None,
) -> BaselineResult:
    """Run one client-directed write or read of ``op`` on ``rt``.

    ``data`` maps mesh position -> {array name: local chunk}.  Each
    daemon serves its own server's file under Panda's ``dataset_file``
    naming, so the result is directly comparable (and byte-identical)
    to a Panda-written dataset.
    """
    config = config or PandaConfig()
    mesh_size = op.arrays[0].memory_schema.mesh.size
    if mesh_size != rt.n_compute:
        raise ValueError(
            f"memory mesh ({mesh_size}) must match compute nodes "
            f"({rt.n_compute})"
        )
    paths = [dataset_file(op.dataset, s) for s in range(rt.n_io)]

    def client(rank: int, rt: BaselineRuntime):
        yield from rt.exchange(rt.network.comm(rank), kind,
                               _pieces(rank, rt, op, config, data))

    return rt.execute(kind, op.total_bytes, paths, client)
