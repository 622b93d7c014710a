"""Data schemas: array shape x mesh x distribution -> chunk geometry.

A :class:`DataSchema` answers the questions Panda's clients and servers
ask during plan formation:

- which region of the array does mesh position *p* hold?  (`chunk_region`)
- what are all the chunks, in canonical order?  (`chunks`)
- which chunks intersect a given region?  (`chunks_intersecting`, or
  `overlaps` for many regions in one batch)

"Natural chunking" (the paper's default) is simply a disk
:class:`DataSchema` equal to the memory one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple, Union

import numpy as np

from repro.counters import COUNTERS
from repro.memo import Memo
from repro.schema.distribution import Dist, block_span, parse_dist
from repro.schema.layout import Mesh
from repro.schema.regions import Region

__all__ = ["Chunk", "DataSchema"]

#: process-wide memo of chunk lists, keyed by schema.  Schemas are
#: value-hashable, so the fresh-but-equal instances a sweep builds per
#: point share one entry per distinct geometry instead of re-missing per
#: instance.
_CHUNKS_CACHE: dict = Memo()


@dataclass(frozen=True)
class Chunk:
    """One chunk of a schema: its canonical id, the mesh coordinates of
    its owner position, and its global region.  May be empty when the
    HPF BLOCK rule leaves trailing mesh positions without data."""

    index: int
    mesh_coords: Tuple[int, ...]
    region: Region

    @property
    def empty(self) -> bool:
        return self.region.empty


@dataclass(frozen=True)
class DataSchema:
    """An HPF BLOCK/* decomposition of an array over a mesh.

    ``dists`` has one directive per *array* dimension; the directives
    that are ``BLOCK`` consume mesh dimensions in order, so the number
    of BLOCK directives must equal the mesh rank.  (This matches the
    paper's API, where ``memory_layout = {8, 8}`` pairs with
    ``{BLOCK, BLOCK, NONE}``.)
    """

    shape: Tuple[int, ...]
    mesh: Mesh
    dists: Tuple[Dist, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "shape", tuple(int(s) for s in self.shape))
        object.__setattr__(self, "dists", tuple(parse_dist(d) for d in self.dists))
        if not self.shape:
            raise ValueError("array rank must be >= 1")
        if any(s < 1 for s in self.shape):
            raise ValueError(f"array shape must be positive: {self.shape}")
        if len(self.dists) != len(self.shape):
            raise ValueError(
                f"{len(self.dists)} directives for rank-{len(self.shape)} array"
            )
        for d in self.dists:
            if d.kind == "CYCLIC":
                raise NotImplementedError(
                    "CYCLIC distributions are outside Panda's chunk model "
                    "(one hyper-rectangle per mesh position); use BLOCK or *"
                )
        n_block = sum(1 for d in self.dists if d.distributed)
        if n_block != self.mesh.ndim:
            raise ValueError(
                f"schema has {n_block} BLOCK dimensions but the mesh has "
                f"rank {self.mesh.ndim}; they must match"
            )
        # schemas key the process-wide geometry memos below; cache the
        # hash so each lookup rehashes one int, not three tuples
        object.__setattr__(
            self, "_hash", hash((self.shape, self.mesh, self.dists))
        )

    def __hash__(self) -> int:  # cached; dataclass keeps explicit hashes
        return self._hash

    # -- factory -----------------------------------------------------------
    @classmethod
    def build(
        cls,
        shape: Sequence[int],
        mesh_dims: Sequence[int],
        dists: Sequence[Union[str, Dist]],
    ) -> "DataSchema":
        return cls(tuple(shape), Mesh(tuple(mesh_dims)), tuple(parse_dist(d) for d in dists))

    # -- geometry -----------------------------------------------------------
    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def n_chunks(self) -> int:
        """Number of mesh positions (= chunks, some possibly empty)."""
        return self.mesh.size

    def chunk_region(self, mesh_coords: Sequence[int]) -> Region:
        """The global region held by the given mesh position."""
        coords = tuple(mesh_coords)
        if len(coords) != self.mesh.ndim:
            raise ValueError(
                f"mesh coords rank {len(coords)} != mesh rank {self.mesh.ndim}"
            )
        lo: List[int] = []
        hi: List[int] = []
        m = 0  # next mesh dimension to consume
        for extent, dist in zip(self.shape, self.dists):
            if dist.distributed:
                l, h = block_span(extent, self.mesh.dims[m], coords[m])
                m += 1
            else:
                l, h = 0, extent
            lo.append(l)
            hi.append(h)
        return Region(tuple(lo), tuple(hi))

    # -- geometry ----------------------------------------------------------
    # The schema is immutable, so its chunk list is pure; it is memoised
    # on the instance (lazily, via object.__setattr__ -- the attribute
    # is not a dataclass field, so equality and hashing are unaffected).

    def _chunk_list(self) -> Tuple[Chunk, ...]:
        """All chunks (including empty ones) by canonical id, cached on
        the instance and shared process-wide between equal schemas."""
        try:
            return self._chunks_cache
        except AttributeError:
            chunks = _CHUNKS_CACHE.get(self)
            if chunks is not None:
                COUNTERS.geom_cache_hits += 1
            else:
                COUNTERS.geom_cache_misses += 1
                chunks = tuple(
                    Chunk(i, coords, self.chunk_region(coords))
                    for i, coords in enumerate(self.mesh.iter_coords())
                )
                _CHUNKS_CACHE[self] = chunks
            object.__setattr__(self, "_chunks_cache", chunks)
            return chunks

    def chunk(self, index: int) -> Chunk:
        """Chunk by canonical (row-major mesh) id."""
        chunks = self._chunk_list()
        if not 0 <= index < len(chunks):
            raise ValueError(
                f"mesh index {index} out of range (size {len(chunks)})"
            )
        return chunks[index]

    def chunks(self, include_empty: bool = False) -> Iterator[Chunk]:
        """All chunks in canonical order.  Empty chunks (possible when
        mesh dims exceed array extents) are skipped unless requested."""
        for c in self._chunk_list():
            if include_empty or not c.empty:
                yield c

    def chunks_intersecting(self, region: Region) -> Tuple[Tuple[Chunk, Region], ...]:
        """All (chunk, overlap) pairs whose region meets ``region``, in
        canonical chunk order: :meth:`overlaps` for one query box."""
        lo = np.array([region.lo], dtype=np.int64)
        hi = np.array([region.hi], dtype=np.int64)
        _, ids, o_lo, o_hi, _, _ = self.overlaps(lo, hi)
        chunks = self._chunk_list()
        return tuple(
            (chunks[i], Region(tuple(l), tuple(h)))
            for i, l, h in zip(ids.tolist(), o_lo.tolist(), o_hi.tolist())
        )

    def overlaps(self, lo: np.ndarray, hi: np.ndarray) -> Tuple[np.ndarray, ...]:
        """Every non-empty overlap of a chunk with one of ``n`` query
        boxes ``[lo[q], hi[q])`` (int64 arrays of shape ``(n, ndim)``).

        Returns ``(query, chunk_id, o_lo, o_hi, c_lo, c_hi)``, one entry
        per overlap: the query's row, the chunk's canonical id, the
        overlap box and the chunk's own box.  Entries are grouped by
        ascending query and, within a query, listed in ascending chunk
        id -- exactly the order a per-chunk scan would produce.

        Rather than scanning every chunk, the HPF BLOCK rule gives the
        candidate mesh coordinates directly: in each distributed
        dimension, blocks of size ``b = ceil(extent / parts)`` overlap
        ``[l, h)`` exactly for indices ``l // b .. (h - 1) // b``.  Every
        query's candidate grid is enumerated at once as one ragged
        row-major product (the last mesh dimension varies fastest, so
        candidate order is canonical id order), and empty trailing HPF
        blocks fall out with every other zero-volume overlap.  The whole
        batch is a fixed number of array operations, however many
        queries it holds.
        """
        n_q, ndim = lo.shape
        dims = self.mesh.dims
        # per distributed dimension: array dim, block size, first
        # candidate coordinate and candidate count of every query
        axes: List[Tuple[int, int, np.ndarray, np.ndarray]] = []
        for d, (extent, dist) in enumerate(zip(self.shape, self.dists)):
            if dist.distributed:
                parts = dims[len(axes)]
                b = -(-extent // parts)
                first = np.maximum(lo[:, d] // b, 0)
                last = np.minimum((hi[:, d] - 1) // b, parts - 1)
                axes.append((d, b, first, np.maximum(last - first + 1, 0)))
        total = np.ones(n_q, dtype=np.int64)
        for _, _, _, count in axes:
            total *= count
        query = np.repeat(np.arange(n_q), total)
        # position of each candidate within its query's grid, decoded as
        # mixed-radix digits (every count is >= 1 for a query that has
        # candidates at all)
        k = np.arange(len(query)) - np.repeat(np.cumsum(total) - total, total)
        c_lo = np.zeros((len(query), ndim), dtype=np.int64)
        c_hi = np.empty_like(c_lo)
        c_hi[:] = self.shape
        chunk_id = np.zeros(len(query), dtype=np.int64)
        stride = 1
        for m in range(len(axes) - 1, -1, -1):
            d, b, first, count = axes[m]
            n = count[query]
            coord = first[query] + k % n
            k //= n
            chunk_id += coord * stride
            stride *= dims[m]
            c_lo[:, d] = coord * b
            c_hi[:, d] = np.minimum(coord * b + b, self.shape[d])
        o_lo = np.maximum(c_lo, lo[query])
        o_hi = np.minimum(c_hi, hi[query])
        keep = (o_hi > o_lo).all(axis=1)
        return (query[keep], chunk_id[keep], o_lo[keep], o_hi[keep],
                c_lo[keep], c_hi[keep])

    def owner_of_point(self, point: Sequence[int]) -> Chunk:
        """The chunk containing ``point`` (computed directly, not by
        search)."""
        coords: List[int] = []
        m = 0
        for extent, dist, p in zip(self.shape, self.dists, point):
            if not 0 <= p < extent:
                raise ValueError(f"point {tuple(point)} outside array {self.shape}")
            if dist.distributed:
                parts = self.mesh.dims[m]
                b = -(-extent // parts)
                coords.append(p // b)
                m += 1
        idx = self.mesh.index_of(tuple(coords))
        return self.chunk(idx)

    # -- descriptions -------------------------------------------------------
    def describe(self) -> dict:
        """A plain-data description (what travels in the collective
        request and what the ``.schema`` file stores)."""
        return {
            "shape": list(self.shape),
            "mesh": list(self.mesh.dims),
            "dists": [d.kind for d in self.dists],
        }

    @classmethod
    def from_description(cls, desc: dict) -> "DataSchema":
        return cls.build(desc["shape"], desc["mesh"], desc["dists"])

    def __repr__(self) -> str:
        dd = ",".join(repr(d) for d in self.dists)
        return f"DataSchema({'x'.join(map(str, self.shape))} as [{dd}] on {self.mesh!r})"
