"""Naive striping and traditional caching: compute-node-directed I/O on
a striped row-major file.

Every compute node translates its local chunk into (stripe, offset)
pieces of the file and issues them directly, in its own traversal
order, with no coordination.

- **Naive striping** (:func:`run_naive_striping`): no cache.  The disk
  at each I/O node sees an interleaving of small requests from many
  clients -- "servicing disk i/o requests as they arrive in random
  order" (paper, section 4) -- and pays per-request overhead and seeks
  on nearly every one.  This is what a naive port of a sequential code
  to a striped file system does, and the floor the other strategies
  are measured against.
- **Traditional caching** (:func:`run_traditional_caching`, Intel CFS
  style, [Pierce93]): the same request stream, but each I/O node
  serves it through a Unix-style buffer cache with sequential prefetch
  and write-behind (``use_cache=True`` on the runtime).  This is the
  paper's strawman: "Without a high level semantic view of the
  collective i/o requests, the file system is not able to predict
  whether sequential prefetching will be useful or when to flush the
  file cache."  Interleaved strided streams evict blocks before their
  neighbours arrive, so the disk still sees many small non-sequential
  requests; [Kotz93b] measured CFS at about half the raw disk
  bandwidth.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional

import numpy as np

from repro.baselines.common import (
    BaselineResult,
    BaselineRuntime,
    Piece,
    StripedLayout,
    chunk_runs,
)
from repro.core.protocol import ArraySpec

__all__ = ["run_naive_striping", "run_traditional_caching", "client_pieces"]


def client_pieces(spec: ArraySpec, rank: int, layout: StripedLayout,
                  local: Optional[np.ndarray] = None) -> Iterator[Piece]:
    """One client's exchange pieces, in its row-major traversal order:
    each run of its chunk split at stripe boundaries, held by the flat
    byte view ``local`` of the chunk (``None`` in virtual mode)."""
    offsets, elems = chunk_runs(spec, rank)
    return layout.pieces(offsets * spec.itemsize, elems * spec.itemsize, local)


def run_naive_striping(
    rt: BaselineRuntime,
    spec: ArraySpec,
    kind: str,
    data: Optional[Dict[int, np.ndarray]] = None,
    dataset: str = "naive",
) -> BaselineResult:
    """Run one naive-striping write or read of ``spec`` on ``rt``.

    ``data`` maps rank -> local chunk ndarray (real mode).  For reads
    the chunks are filled in place.
    """
    rt.require_data(data)
    layout = rt.layout(spec.nbytes)

    def client(rank: int, rt: BaselineRuntime):
        local = None
        if rt.real_payloads:
            local = data[rank].reshape(-1).view(np.uint8)
        yield from rt.exchange(rt.network.comm(rank), kind,
                               client_pieces(spec, rank, layout, local))

    return rt.execute(kind, spec.nbytes, [f"{dataset}.striped"] * rt.n_io,
                      client)


def run_traditional_caching(
    rt: BaselineRuntime,
    spec: ArraySpec,
    kind: str,
    data: Optional[Dict[int, np.ndarray]] = None,
    dataset: str = "cfs",
) -> BaselineResult:
    """Run one traditional-caching write or read: naive striping's
    requests on a runtime built with ``use_cache=True``."""
    if any(s.cache is None for s in rt.servers):
        raise ValueError(
            "traditional caching needs a BaselineRuntime(use_cache=True)"
        )
    return run_naive_striping(rt, spec, kind, data, dataset)
