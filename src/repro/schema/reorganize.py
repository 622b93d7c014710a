"""The reorganisation engine: copying data between regions and chunks.

"In Panda's server-directed i/o architecture, array data is
automatically reorganized whenever the in-memory schema and the on-disk
schema differ" (paper, section 3).  Mechanically, reorganisation is
nothing but region-shaped gather/scatter copies:

- a **client** asked for sub-chunk piece *R* answers with the view of
  ``R`` in its local chunk, a strided view when *R* does not span the
  chunk's trailing dimensions; nothing is packed;
- a **server** assembling a sub-chunk scatters each received piece into
  its sub-chunk buffer (``inject_region``) -- the file's reserved
  extent -- producing the chunk in traditional (row-major) order;
- the reverse happens on reads: the server sends views of the file's
  sub-chunk and the client scatters them into its chunk.

``inject_region`` is therefore the one copy a piece's bytes make on
either path.  All functions operate on NumPy arrays holding a chunk in
row-major order, with the chunk's global origin given separately, so
the same code serves memory chunks, disk chunks and sub-chunk buffers.
The protocol's hot path passes a piece row's precomputed local slices
instead (:class:`repro.core.plan.PieceRow`), so each piece costs one
slice assignment.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.counters import COUNTERS
from repro.schema.regions import Region

__all__ = ["inject_region", "gather_into"]

Slices = Tuple[slice, ...]


def _local_slices(region: Region, origin: Sequence[int], shape: Tuple[int, ...]) -> Tuple[slice, ...]:
    """Slices selecting global ``region`` from a chunk array of ``shape``
    whose lowest global corner is ``origin``."""
    local = region.relative_to(origin)
    if any(l < 0 for l in local.lo) or any(h > s for h, s in zip(local.hi, shape)):
        raise ValueError(
            f"region {region} does not fit in chunk at origin {tuple(origin)} "
            f"with shape {shape}"
        )
    return local.slices()


def inject_region(
    chunk: np.ndarray, origin: Optional[Sequence[int]], region: Region,
    data: np.ndarray, *, slices: Optional[Slices] = None,
) -> None:
    """Scatter ``data`` (shaped like ``region``, or flat and
    C-contiguous) into ``chunk`` (whose global origin is ``origin``) at
    the position of global ``region``.  When the region's local
    ``slices`` in ``chunk`` are already known they are used as they
    are, with no translation or bounds check, and ``origin`` may be
    None.  Strided ``data`` must have the region's shape: reshaping it
    would be a second, uncounted copy."""
    if slices is None:
        slices = _local_slices(region, origin, chunk.shape)
    view = chunk[slices]
    data = np.asarray(data)
    if data.shape != view.shape:
        if not data.flags.c_contiguous:
            raise ValueError(
                f"strided data of shape {data.shape} does not match "
                f"region shape {view.shape}")
        data = data.reshape(view.shape)
    view[...] = data
    COUNTERS.bytes_copied += view.nbytes


def gather_into(
    dst: np.ndarray,
    dst_origin: Sequence[int],
    src: np.ndarray,
    src_origin: Sequence[int],
    region: Region,
) -> None:
    """Copy global ``region`` from ``src`` into ``dst`` where both are
    chunk arrays with the given global origins.  One call performs a
    full reorganisation step without intermediate buffers."""
    src_sl = _local_slices(region, src_origin, src.shape)
    dst_sl = _local_slices(region, dst_origin, dst.shape)
    dst[dst_sl] = src[src_sl]
