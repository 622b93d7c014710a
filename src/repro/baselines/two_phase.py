"""Two-phase I/O [Bordawekar93]: the compute-node-side optimisation.

For a write:

- **phase 1 (permute)**: the compute nodes redistribute data among
  themselves so that each holds a *conforming* piece of the file --
  client *i* of *C* ends up with the ``i``-th consecutive segment of
  the row-major array.  One message per (source, destination) pair
  carries all of the source's data for that destination (the classic
  all-to-all).
- **phase 2 (I/O)**: each client streams its contiguous segment to the
  I/O nodes in large (stripe-sized, default 1 MB) requests.  Each
  server's file receives long sequential runs, broken only when the
  server switches between client streams.

Reads run the phases in reverse.  Compared to Panda, two-phase achieves
similar disk efficiency when disk-bound, but (a) it spends extra
network bandwidth and compute-node memory on the permutation, (b) the
compute nodes -- not the I/O nodes -- must understand the file layout,
and (c) interleaving of client streams still costs occasional seeks.

Only ``BLOCK``/``*`` memory schemas are supported (same vocabulary as
Panda), and the file layout is always row-major (that is the layout
two-phase targets).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.baselines.common import (BaselineResult, BaselineRuntime,
                                    chunk_runs, split_runs)
from repro.core.protocol import ArraySpec, Tags
from repro.counters import COUNTERS

__all__ = ["run_two_phase", "conforming_segment", "transfer_matrix"]

#: one rank's chunk pieces, by the segment owner each falls to: one
#: ``(global_offset, elems, local_offset)`` row per piece, in elements
_Routes = Dict[int, np.ndarray]


def conforming_segment(total_elems: int, n_clients: int, rank: int) -> Tuple[int, int]:
    """Element range ``[lo, hi)`` of the conforming distribution's
    segment for ``rank`` (HPF BLOCK rule over the linearised array)."""
    seg = -(-total_elems // n_clients)
    lo = min(rank * seg, total_elems)
    hi = min(lo + seg, total_elems)
    return lo, hi


def _routes(spec: ArraySpec, n_clients: int) -> List[_Routes]:
    """What the permutation moves: for each rank, its chunk's runs split
    at conforming-segment boundaries, by segment owner, ascending."""
    seg = -(-int(np.prod(spec.shape)) // n_clients)
    routes = []
    for src in range(n_clients):
        owner, goff, elems, loff = split_runs(*chunk_runs(spec, src), seg)
        owners, first = np.unique(owner, return_index=True)
        rows = np.column_stack((goff, elems, loff))
        routes.append(dict(zip(owners.tolist(), np.split(rows, first[1:]))))
    return routes


def transfer_matrix(spec: ArraySpec, n_clients: int) -> np.ndarray:
    """bytes[src, dst] moved during the permutation phase."""
    mat = np.zeros((n_clients, n_clients), dtype=np.int64)
    for src, by_owner in enumerate(_routes(spec, n_clients)):
        for dst, pieces in by_owner.items():
            mat[src, dst] = pieces[:, 1].sum() * spec.itemsize
    return mat


def _client(rank: int, rt: BaselineRuntime, spec: ArraySpec, kind: str,
            data: Optional[Dict[int, np.ndarray]], routes: List[_Routes]):
    comm = rt.network.comm(rank)
    seg_lo, seg_hi = conforming_segment(int(np.prod(spec.shape)),
                                        rt.n_compute, rank)
    real = rt.real_payloads
    local = data[rank].reshape(-1) if real else None
    buf = np.zeros(seg_hi - seg_lo, dtype=spec.np_dtype) if real else None
    stripes = rt.layout(spec.nbytes).pieces(
        seg_lo * spec.itemsize, (seg_hi - seg_lo) * spec.itemsize,
        None if buf is None else buf.view(np.uint8))
    # a piece's place in its chunk and in my segment's buffer; a write
    # permutes from chunks to segments, a read back
    chunk = lambda p: slice(p[2], p[2] + p[1])
    seg = lambda p: slice(p[0] - seg_lo, p[0] - seg_lo + p[1])
    (src, src_at), (dst, dst_at) = (((local, chunk), (buf, seg))
                                    if kind == "write" else
                                    ((buf, seg), (local, chunk)))

    def send(to, pieces):
        """Send ``pieces`` to rank ``to`` as views (each is a 1-D slice
        of a contiguous buffer) -- or, to myself, copy them across."""
        nbytes = int(pieces[:, 1].sum()) * spec.itemsize
        yield comm.copy_s(nbytes, len(pieces))
        if to != rank:
            payload = ([src[src_at(p)] for p in pieces.tolist()]
                       if real else None)
            yield from comm.send(to, Tags.PERMUTE, payload, nbytes=nbytes)
        elif real:
            for p in pieces.tolist():
                dst[dst_at(p)] = src[src_at(p)]
            COUNTERS.bytes_copied += nbytes

    def receive(senders, pieces_from):
        """Take one PERMUTE from each of ``senders`` and unpack it."""
        for _ in senders:
            msg = yield from comm.recv(tag=Tags.PERMUTE)
            yield comm.handle_s
            pieces = pieces_from(msg.src)
            nbytes = int(pieces[:, 1].sum()) * spec.itemsize
            yield comm.copy_s(nbytes, len(pieces))
            if real:
                for p, piece in zip(pieces.tolist(), msg.payload):
                    dst[dst_at(p)] = piece
                COUNTERS.bytes_copied += nbytes

    mine = routes[rank]  # my chunk's pieces, by segment owner
    # the other ranks whose segment my chunk overlaps, and those whose
    # chunk overlaps my segment
    owners = [s for s in mine if s != rank]
    holders = [s for s in range(rt.n_compute)
               if s != rank and rank in routes[s]]
    if kind == "write":
        for to in sorted(mine):  # phase 1: permute
            yield from send(to, mine[to])
        yield from receive(holders, lambda s: routes[s][rank])
        yield from rt.exchange(comm, kind, stripes)  # phase 2: large I/O
        return
    yield from rt.exchange(comm, kind, stripes)  # phase 1: large I/O
    for to in holders:  # phase 2: permute back
        yield from send(to, routes[to][rank])
    if rank in mine:
        yield from send(rank, mine[rank])
    yield from receive(owners, lambda s: mine[s])


def run_two_phase(
    rt: BaselineRuntime,
    spec: ArraySpec,
    kind: str,
    data: Optional[Dict[int, np.ndarray]] = None,
    dataset: str = "twophase",
) -> BaselineResult:
    """Run one two-phase write or read of ``spec`` on ``rt``.  Use a
    runtime with a large ``stripe_bytes`` (e.g. 1 MB) so its large-I/O
    phase issues large requests -- that is the method's whole point."""
    rt.require_data(data)
    routes = _routes(spec, rt.n_compute)
    return rt.execute(
        kind, spec.nbytes, [f"{dataset}.striped"] * rt.n_io,
        lambda rank, rt: _client(rank, rt, spec, kind, data, routes))
