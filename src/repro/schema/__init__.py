"""Array schema algebra: HPF-style distributions, chunk geometry,
regions, and the reorganisation engine.

This package implements technique (1) of the paper -- storage of arrays
by subarray chunks in memory and on disk -- as pure geometry, decoupled
from the simulation.  Everything here is deterministic, side-effect
free, and heavily property-tested.

Key types:

- :class:`Region` -- a hyper-rectangle ``[lo, hi)`` in array index
  space, with intersection, containment, linearisation and
  contiguous-run analysis.
- :class:`Dist` / :data:`BLOCK` / :data:`NONE` -- per-dimension HPF
  distribution directives (``NONE`` is HPF's ``*``).
- :class:`Mesh` -- a logical processor mesh with row-major rank
  numbering.
- :class:`DataSchema` -- array shape x mesh x distribution: enumerates
  the chunk regions held by each mesh position.
- :func:`split_row_major` -- sub-chunking: split a region into
  hyper-rectangular pieces, each at most ``max_elems`` elements, that
  are *consecutive, contiguous spans of the region's row-major order*
  (the property Panda's sequential writes rely on).
- :mod:`repro.schema.reorganize` -- gather/scatter copies between
  regions and local chunk arrays.
"""

from repro.schema.chunking import Chunk, DataSchema
from repro.schema.distribution import BLOCK, CYCLIC, NONE, Dist, parse_dist
from repro.schema.layout import Mesh
from repro.schema.regions import Region
from repro.schema.split import split_row_major
from repro.schema.reorganize import gather_into, inject_region

__all__ = [
    "BLOCK",
    "CYCLIC",
    "Chunk",
    "DataSchema",
    "Dist",
    "Mesh",
    "NONE",
    "Region",
    "gather_into",
    "inject_region",
    "parse_dist",
    "split_row_major",
]
