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

import bisect
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.baselines.common import (
    BaselineResult,
    BaselineRuntime,
    BaselineTags,
)
from repro.core.protocol import ArraySpec
from repro.mpi.datatypes import DataBlock
from repro.schema.regions import Region

__all__ = ["run_two_phase", "conforming_segment", "transfer_matrix"]


def conforming_segment(total_elems: int, n_clients: int, rank: int) -> Tuple[int, int]:
    """Element range ``[lo, hi)`` of the conforming distribution's
    segment for ``rank`` (HPF BLOCK rule over the linearised array)."""
    seg = -(-total_elems // n_clients)
    lo = min(rank * seg, total_elems)
    hi = min(lo + seg, total_elems)
    return lo, hi


class _RunIndex:
    """Maps global element offsets back into a rank's local chunk."""

    def __init__(self, spec: ArraySpec, rank: int) -> None:
        full = Region.from_shape(spec.shape)
        region = spec.memory_schema.chunk(rank).region
        self.runs: List[Tuple[int, int, int]] = []  # (goff, elems, loff)
        if not region.empty:
            for start, elems in region.iter_runs_within(full):
                self.runs.append(
                    (full.linear_offset_of(start), elems,
                     region.linear_offset_of(start))
                )
        self._starts = [r[0] for r in self.runs]

    def overlaps(self, lo: int, hi: int) -> List[Tuple[int, int, int]]:
        """(goff, elems, loff) pieces of this chunk inside global element
        range [lo, hi)."""
        out = []
        idx = bisect.bisect_right(self._starts, lo) - 1
        idx = max(idx, 0)
        for goff, elems, loff in self.runs[idx:]:
            if goff >= hi:
                break
            o_lo = max(goff, lo)
            o_hi = min(goff + elems, hi)
            if o_hi > o_lo:
                out.append((o_lo, o_hi - o_lo, loff + (o_lo - goff)))
        return out


def transfer_matrix(spec: ArraySpec, n_clients: int) -> np.ndarray:
    """bytes[src, dst] moved during the permutation phase."""
    total = int(np.prod(spec.shape))
    mat = np.zeros((n_clients, n_clients), dtype=np.int64)
    seg = -(-total // n_clients)
    full = Region.from_shape(spec.shape)
    for src in range(n_clients):
        region = spec.memory_schema.chunk(src).region
        if region.empty:
            continue
        for start, elems in region.iter_runs_within(full):
            goff = full.linear_offset_of(start)
            end = goff + elems
            j = goff // seg
            pos = goff
            while pos < end:
                j_hi = min((j + 1) * seg, end)
                mat[src, j] += (j_hi - pos) * spec.itemsize
                pos = j_hi
                j += 1
    return mat


def _client(rank: int, rt: BaselineRuntime, spec: ArraySpec, kind: str,
            data: Optional[Dict[int, np.ndarray]], path: str,
            matrix: np.ndarray):
    comm = rt.network.comm(rank)
    total = int(np.prod(spec.shape))
    C = rt.n_compute
    seg_lo, seg_hi = conforming_segment(total, C, rank)
    seg_elems = seg_hi - seg_lo
    layout = rt.layout(spec.nbytes)
    index = _RunIndex(spec, rank)
    real = rt.real_payloads
    local = data[rank].reshape(-1) if (real and data is not None) else None
    spec_dtype = spec.np_dtype
    incoming = [s for s in range(C) if s != rank and matrix[s, rank] > 0]

    def permute_out():
        """Send my chunk's pieces to their segment owners; copy my own."""
        pieces_by_dst: Dict[int, List[Tuple[int, int, int]]] = {}
        seg = -(-total // C)
        for goff, elems, loff in index.runs:
            pos = goff
            while pos < goff + elems:
                j = pos // seg
                span = min((j + 1) * seg, goff + elems) - pos
                pieces_by_dst.setdefault(j, []).append(
                    (pos, span, loff + (pos - goff))
                )
                pos += span
        return pieces_by_dst

    def gen():
        buf = np.zeros(seg_elems, dtype=spec_dtype) if real else None
        pieces_by_dst = permute_out()

        if kind == "write":
            # --- phase 1: permute ---------------------------------------
            for dst in sorted(pieces_by_dst):
                pieces = pieces_by_dst[dst]
                nbytes = sum(p[1] for p in pieces) * spec.itemsize
                if dst == rank:
                    # local pieces: one gather pass
                    yield comm.copy_s(nbytes, len(pieces))
                    if real:
                        for goff, elems, loff in pieces:
                            buf[goff - seg_lo : goff - seg_lo + elems] = \
                                local[loff : loff + elems]
                    continue
                if real:
                    payload = [
                        (goff, np.ascontiguousarray(local[loff : loff + elems]))
                        for goff, elems, loff in pieces
                    ]
                else:
                    payload = [(goff, elems) for goff, elems, _ in pieces]
                yield comm.copy_s(nbytes, len(pieces))  # pack
                yield from comm.send(dst, BaselineTags.PERMUTE,
                                     ("w", payload), nbytes=nbytes)
            for _src in incoming:
                msg = yield from comm.recv(tag=BaselineTags.PERMUTE)
                yield comm.handle_s
                _mode, payload = msg.payload
                nbytes = msg.nbytes
                yield comm.copy_s(nbytes, len(payload))  # unpack
                if real:
                    for goff, piece in payload:
                        buf[goff - seg_lo : goff - seg_lo + piece.size] = piece
            # --- phase 2: large contiguous I/O ---------------------------
            pos_b = seg_lo * spec.itemsize
            end_b = seg_hi * spec.itemsize
            while pos_b < end_b:
                for server, soff, nb in layout.map(
                    pos_b, min(rt.stripe_bytes - pos_b % rt.stripe_bytes,
                               end_b - pos_b)
                ):
                    if real:
                        lo_e = pos_b // spec.itemsize - seg_lo
                        block = DataBlock.real(
                            buf[lo_e : lo_e + nb // spec.itemsize]
                        )
                    else:
                        block = DataBlock.virtual(nb)
                    dst = rt.server_rank(server)
                    yield from comm.send(dst, BaselineTags.WRITE,
                                         (soff, nb, block), nbytes=nb)
                    yield from comm.recv(src=dst, tag=BaselineTags.ACK)
                    pos_b += nb
        else:
            # --- phase 1 (read): large contiguous I/O --------------------
            pos_b = seg_lo * spec.itemsize
            end_b = seg_hi * spec.itemsize
            while pos_b < end_b:
                for server, soff, nb in layout.map(
                    pos_b, min(rt.stripe_bytes - pos_b % rt.stripe_bytes,
                               end_b - pos_b)
                ):
                    dst = rt.server_rank(server)
                    yield from comm.send(dst, BaselineTags.READ,
                                         (soff, nb, None))
                    msg = yield from comm.recv(src=dst, tag=BaselineTags.DATA)
                    if real:
                        lo_e = pos_b // spec.itemsize - seg_lo
                        buf[lo_e : lo_e + nb // spec.itemsize] = \
                            msg.payload.array.view(spec_dtype)
                    pos_b += nb
            # --- phase 2 (read): permute back -- the flow reverses: each
            # segment owner sends chunk-owners the pieces of its segment
            # they need
            out_targets = [
                d for d in range(C) if d != rank and matrix[d, rank] > 0
            ]
            for dst in sorted(out_targets):
                other = _RunIndex(spec, dst)
                pieces = other.overlaps(seg_lo, seg_hi)
                nbytes = sum(p[1] for p in pieces) * spec.itemsize
                yield comm.copy_s(nbytes, len(pieces))  # pack
                if real:
                    payload = [
                        (goff,
                         np.ascontiguousarray(
                             buf[goff - seg_lo : goff - seg_lo + elems]
                         ))
                        for goff, elems, _loff in pieces
                    ]
                else:
                    payload = [(goff, elems) for goff, elems, _ in pieces]
                yield from comm.send(dst, BaselineTags.PERMUTE,
                                     ("r", payload), nbytes=nbytes)
            # local pieces of my own chunk
            own = index.overlaps(seg_lo, seg_hi)
            own_bytes = sum(p[1] for p in own) * spec.itemsize
            if own:
                yield comm.copy_s(own_bytes, len(own))
                if real:
                    for goff, elems, loff in own:
                        local[loff : loff + elems] = \
                            buf[goff - seg_lo : goff - seg_lo + elems]
            # receive my chunk's pieces from the other segment owners
            expect = [s for s in range(C)
                      if s != rank and matrix[rank, s] > 0]
            for _src in expect:
                msg = yield from comm.recv(tag=BaselineTags.PERMUTE)
                yield comm.handle_s
                _mode, payload = msg.payload
                yield comm.copy_s(msg.nbytes, len(payload))
                if real:
                    for goff, piece in payload:
                        for o_goff, o_elems, o_loff in index.overlaps(
                            goff, goff + piece.size
                        ):
                            local[o_loff : o_loff + o_elems] = piece[
                                o_goff - goff : o_goff - goff + o_elems
                            ]

    return gen()


def run_two_phase(
    rt: BaselineRuntime,
    spec: ArraySpec,
    kind: str,
    data: Optional[Dict[int, np.ndarray]] = None,
    dataset: str = "twophase",
) -> BaselineResult:
    """Run one two-phase write or read of ``spec`` on ``rt``.  Use a
    runtime with a large ``stripe_bytes`` (e.g. 1 MB) so phase 2 issues
    large requests -- that is the method's whole point."""
    if kind not in ("write", "read"):
        raise ValueError(f"bad kind {kind!r}")
    matrix = transfer_matrix(spec, rt.n_compute)
    path = f"{dataset}.striped"
    elapsed = rt.execute(
        path,
        lambda rank, rt_: _client(rank, rt_, spec, kind, data, path, matrix),
        flush=(kind == "write"),
    )
    return BaselineResult(
        strategy="two-phase", kind=kind, total_bytes=spec.nbytes,
        elapsed=elapsed, runtime=rt,
    )
