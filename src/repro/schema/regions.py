"""Hyper-rectangular regions of array index space.

A :class:`Region` is the half-open box ``[lo[0], hi[0]) x ... x
[lo[n-1], hi[n-1])``.  Regions are the currency of the whole system:
memory chunks, disk chunks, sub-chunks, and the logical sub-chunk
requests exchanged between Panda clients and servers are all regions in
the *global* index space of an array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Tuple

__all__ = ["Region"]


@dataclass(frozen=True)
class Region:
    """A half-open hyper-rectangle ``[lo, hi)`` in n-dimensional index
    space.  Immutable and hashable."""

    # slotted: plans hold one region per sub-chunk and per piece row
    # (``_hash`` and ``_size`` are filled on first use)
    __slots__ = ("lo", "hi", "_hash", "_size")

    lo: Tuple[int, ...]
    hi: Tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.lo) != len(self.hi):
            raise ValueError(f"rank mismatch: lo={self.lo} hi={self.hi}")
        if not self.lo:
            raise ValueError("regions must have rank >= 1")
        # normalise: tuples of ints, not lists or numpy scalars
        lo = tuple(map(int, self.lo))
        hi = tuple(map(int, self.hi))
        for l, h in zip(lo, hi):
            if h < l:
                raise ValueError(
                    f"inverted extent in region lo={self.lo} hi={self.hi}")
        object.__setattr__(self, "lo", lo)  # the dataclass is frozen
        object.__setattr__(self, "hi", hi)

    @classmethod
    def _trusted(cls, lo: Tuple[int, ...], hi: Tuple[int, ...]) -> "Region":
        """A region from already-valid parts, skipping validation: for
        bulk builders whose ``lo``/``hi`` are tuples of Python ints with
        ``hi >= lo`` by construction."""
        region = object.__new__(cls)
        object.__setattr__(region, "lo", lo)
        object.__setattr__(region, "hi", hi)
        return region

    # Hash and size are computed on first use and kept: the plan memo
    # holds a region per piece row, most of which are never hashed or
    # measured, and an unused int per field is memory for nothing.

    def __hash__(self) -> int:  # cached; dataclass keeps explicit hashes
        try:
            return self._hash
        except AttributeError:
            h = hash((self.lo, self.hi))
            object.__setattr__(self, "_hash", h)
            return h

    # -- constructors ------------------------------------------------------
    @classmethod
    def from_shape(cls, shape: Sequence[int]) -> "Region":
        """The full region ``[0, shape)``."""
        return cls(tuple(0 for _ in shape), tuple(int(s) for s in shape))

    # -- basic geometry ---------------------------------------------------
    @property
    def ndim(self) -> int:
        return len(self.lo)

    @property
    def shape(self) -> Tuple[int, ...]:
        return tuple(h - l for l, h in zip(self.lo, self.hi))

    @property
    def size(self) -> int:
        """Number of elements (0 if empty)."""
        try:
            return self._size
        except AttributeError:
            n = 1
            for l, h in zip(self.lo, self.hi):
                n *= h - l
            object.__setattr__(self, "_size", n)
            return n

    @property
    def empty(self) -> bool:
        # extents are validated non-negative, so zero volume means some
        # extent is zero
        return self.size == 0

    def nbytes(self, itemsize: int) -> int:
        return self.size * itemsize

    # -- set operations -----------------------------------------------------
    def intersect(self, other: "Region") -> Optional["Region"]:
        """The overlap of two regions, or None when they are disjoint
        (an empty-overlap, zero-volume touch also yields None)."""
        if self.ndim != other.ndim:
            raise ValueError("rank mismatch in intersect")
        lo = tuple(max(a, b) for a, b in zip(self.lo, other.lo))
        hi = tuple(min(a, b) for a, b in zip(self.hi, other.hi))
        if any(h <= l for l, h in zip(lo, hi)):
            return None
        return Region(lo, hi)

    def contains(self, other: "Region") -> bool:
        """True when ``other`` lies entirely inside this region."""
        return all(
            sl <= ol and oh <= sh
            for sl, ol, oh, sh in zip(self.lo, other.lo, other.hi, self.hi)
        )

    def contains_point(self, point: Sequence[int]) -> bool:
        return all(l <= p < h for l, p, h in zip(self.lo, point, self.hi))

    # -- coordinate transforms -----------------------------------------------
    def translate(self, offset: Sequence[int]) -> "Region":
        """Shift the region by ``offset`` (may be negative)."""
        return Region(
            tuple(l + o for l, o in zip(self.lo, offset)),
            tuple(h + o for h, o in zip(self.hi, offset)),
        )

    def relative_to(self, origin: Sequence[int]) -> "Region":
        """Express this (global) region in coordinates local to a box
        whose lowest corner sits at ``origin``."""
        return self.translate(tuple(-o for o in origin))

    def slices(self) -> Tuple[slice, ...]:
        """NumPy basic-indexing slices selecting this region from an
        array whose origin coincides with index 0."""
        return tuple(slice(l, h) for l, h in zip(self.lo, self.hi))

    # -- row-major structure ---------------------------------------------------
    def linear_offset_of(self, point: Sequence[int]) -> int:
        """Row-major linear offset of ``point`` *within this region*."""
        if not self.contains_point(point):
            raise ValueError(f"{tuple(point)} outside region {self}")
        off = 0
        for (l, _h), p, extent in zip(zip(self.lo, self.hi), point, self.shape):
            off = off * extent + (p - l)
        return off

    def point_at_linear_offset(self, offset: int) -> Tuple[int, ...]:
        """Inverse of :meth:`linear_offset_of`."""
        if not 0 <= offset < self.size:
            raise ValueError(f"offset {offset} outside region of size {self.size}")
        coords = []
        for extent in reversed(self.shape):
            coords.append(offset % extent)
            offset //= extent
        return tuple(l + c for l, c in zip(self.lo, reversed(coords)))

    def contiguous_runs_within(self, container: "Region") -> Tuple[int, int]:
        """Decompose this region into contiguous runs of the row-major
        linearisation of ``container``.

        Returns ``(n_runs, run_length)`` with ``n_runs * run_length ==
        self.size``.  ``container`` must contain ``self``.

        This is the cost kernel for strided access: a client holding its
        chunk as a row-major array services a sub-chunk request with
        ``n_runs`` memcpy calls of ``run_length`` elements each.
        """
        if not container.contains(self):
            raise ValueError(f"{self} not inside container {container}")
        if self.empty:
            return (0, 0)
        n = self.ndim
        # count trailing dimensions that self spans fully in container
        k = 0
        for i in range(n - 1, -1, -1):
            if self.lo[i] == container.lo[i] and self.hi[i] == container.hi[i]:
                k += 1
            else:
                break
        if k == n:
            return (1, self.size)
        # the first (from the right) partial dimension merges with the
        # fully-spanned suffix into single runs
        run = self.shape[n - 1 - k]
        for i in range(n - k, n):
            run *= container.shape[i]
        runs = 1
        for i in range(0, n - 1 - k):
            runs *= self.shape[i]
        return (runs, run)

    def iter_runs_within(self, container: "Region") -> Iterator[Tuple[Tuple[int, ...], int]]:
        """Enumerate the contiguous runs of this region in the row-major
        linearisation of ``container``: yields ``(start_point,
        run_elems)`` in ascending order.

        Each run is simultaneously contiguous in the container *and* in
        a row-major array holding just this region (the trailing
        dimensions a run spans fully in the container are spanned fully
        by the region too), which is what lets clients stream runs
        without re-buffering.
        """
        n_runs, run_len = self.contiguous_runs_within(container)
        if n_runs == 0:
            return
        # leading dims that vary across runs
        lead = 0
        acc = 1
        for extent in self.shape:
            if acc == n_runs:
                break
            acc *= extent
            lead += 1
        lead_region = Region(self.lo[:lead], self.hi[:lead]) if lead else None
        if lead_region is None:
            yield (self.lo, run_len)
            return
        tail = self.lo[lead:]
        for lead_pt in lead_region.iter_points():
            yield (lead_pt + tail, run_len)

    def iter_points(self) -> Iterator[Tuple[int, ...]]:
        """Iterate all points in row-major order (small regions only --
        used by tests)."""
        if self.empty:
            return
        point = list(self.lo)
        n = self.ndim
        while True:
            yield tuple(point)
            i = n - 1
            while i >= 0:
                point[i] += 1
                if point[i] < self.hi[i]:
                    break
                point[i] = self.lo[i]
                i -= 1
            if i < 0:
                return

    def __repr__(self) -> str:
        spans = ",".join(f"{l}:{h}" for l, h in zip(self.lo, self.hi))
        return f"Region[{spans}]"
