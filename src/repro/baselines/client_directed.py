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
the damage is much larger.  The ``server_direction`` study of
``benchmarks/bench_paper.py`` quantifies both.

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
from repro.schema.regions import Region, runs_within

__all__ = ["run_client_directed", "client_piece_schedule"]


def _runs(op: CollectiveOp, n_servers: int, config: PandaConfig,
          mesh_position: int) -> Iterator[tuple]:
    """The runs one client pushes, in its own (array, chunk, sub-chunk)
    order, a sub-chunk at a time: ``(server, array_index, file_offsets,
    lo, hi, nbytes)`` for every intersection between the client's
    memory chunks and every planned sub-chunk.  A strided piece of a
    sub-chunk is written run by run, each run at the file offset of its
    first element: ``file_offsets`` holds one per run, ``lo`` and
    ``hi`` one row of global corners per run, and every run is
    ``nbytes`` long."""
    for s in range(n_servers):
        for item in build_server_plan(op, s, n_servers, config).items:
            spec = op.arrays[item.array_index]
            overlap = item.region.intersect(
                spec.memory_schema.chunk(mesh_position).region)
            if overlap is None:
                continue
            offsets, elems = overlap.run_offsets(item.region)
            lo, hi = item.region.run_corners(offsets, elems)
            yield (s, item.array_index,
                   item.file_offset + offsets * spec.itemsize, lo, hi,
                   elems * spec.itemsize)


def client_piece_schedule(
    op: CollectiveOp,
    n_servers: int,
    config: PandaConfig,
    mesh_position: int,
) -> List[Tuple[int, int, Region, int, int]]:
    """What one client pushes, in its own (array, chunk, sub-chunk)
    order: ``(server, file_offset, run_region, nbytes, array_index)``
    for every run of every intersection between the client's memory
    chunks and every planned sub-chunk."""
    return [(s, off, Region(tuple(l), tuple(h)), nbytes, ai)
            for s, ai, offsets, lo, hi, nbytes
            in _runs(op, n_servers, config, mesh_position)
            for off, l, h in zip(offsets.tolist(), lo.tolist(), hi.tolist())]


def _pieces(rank: int, rt: BaselineRuntime, op: CollectiveOp,
            config: PandaConfig,
            data: Optional[Dict[int, Dict[str, np.ndarray]]]
            ) -> Iterator[Piece]:
    """Exchange pieces of :func:`client_piece_schedule`, each held by its
    run's region of the client's chunk in as many runs as that takes."""
    for s, ai, offsets, lo, hi, nbytes in _runs(op, rt.n_io, config, rank):
        spec = op.arrays[ai]
        chunk = spec.memory_schema.chunk(rank).region
        c_lo, c_hi = np.array(chunk.lo), np.array(chunk.hi)
        runs = runs_within(lo, hi, c_lo, c_hi).tolist()
        local = data[rank][spec.name] if rt.real_payloads else None
        for off, n, l, h in zip(offsets.tolist(), runs, (lo - c_lo).tolist(),
                                (hi - c_lo).tolist()):
            yield (s, off, nbytes, n,
                   None if local is None else local[tuple(map(slice, l, h))])


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
    rt.require_data(data)
    paths = [dataset_file(op.dataset, s) for s in range(rt.n_io)]

    def client(rank: int, rt: BaselineRuntime):
        yield from rt.exchange(rt.network.comm(rank), kind,
                               _pieces(rank, rt, op, config, data))

    return rt.execute(kind, op.total_bytes, paths, client)
