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

import numpy as np

__all__ = ["Region", "runs_within"]


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
    def run_offsets(self, container: "Region") -> Tuple[np.ndarray, int]:
        """The contiguous runs of this region in the row-major
        linearisation of ``container``: the linear offset of every run
        start, ascending, as one int64 array, and the common run length
        (``(empty, 0)`` for an empty region).  ``container`` must
        contain ``self``.

        The offsets are a broadcast sum of the container's strides over
        the dimensions the runs step through (:func:`runs_within`) --
        an MPI vector datatype.  Each run is contiguous in the container
        *and* in a row-major array holding just this region, so run
        ``i`` starts at element ``i * run_length`` of that array: a
        client streams its runs without re-buffering.
        """
        lo, hi, c_lo, c_hi = self._corners_within(container)
        if self.empty:
            return np.zeros(0, dtype=np.int64), 0
        strides = np.ones_like(lo)
        strides[:-1] = np.cumprod((c_hi - c_lo)[:0:-1])[::-1]
        offsets = np.array([(lo - c_lo) @ strides])
        for d in np.flatnonzero(_steps(lo, hi, c_lo, c_hi)).tolist():
            offsets = np.add.outer(offsets, np.arange(hi[d] - lo[d]) * strides[d]).ravel()
        return offsets, self.size // offsets.size

    def run_corners(self, offsets: np.ndarray,
                    run_length: int) -> Tuple[np.ndarray, np.ndarray]:
        """The ``[lo, hi)`` corners, one row per run, of the runs of
        ``run_length`` elements at ``offsets`` of this region's row-major
        order (as :meth:`run_offsets` returns them with this region as
        the container).  A run is a hyper-rectangle whose first point
        is its min corner and whose last point is its max corner."""
        offsets = np.asarray(offsets, dtype=np.int64)
        first = np.unravel_index(offsets, self.shape)
        last = np.unravel_index(offsets + (run_length - 1), self.shape)
        origin = np.array(self.lo, dtype=np.int64)
        return (np.stack(first, axis=-1) + origin,
                np.stack(last, axis=-1) + origin + 1)

    def contiguous_runs_within(self, container: "Region") -> Tuple[int, int]:
        """``(n_runs, run_length)`` of :meth:`run_offsets`, with
        ``n_runs * run_length == self.size``, without listing the runs:
        the one-box case of :func:`runs_within`.  This is the cost
        kernel for strided access: a client holding its chunk as a
        row-major array services a sub-chunk request with ``n_runs``
        memcpy calls of ``run_length`` elements each."""
        lo, hi, c_lo, c_hi = self._corners_within(container)
        if self.empty:
            return 0, 0
        n_runs = int(runs_within(lo, hi, c_lo, c_hi))
        return n_runs, self.size // n_runs

    def _corners_within(self, container: "Region") -> np.ndarray:
        """The rows ``lo, hi`` of this region and of ``container`` as
        one int64 array, once ``container`` is checked to contain it."""
        if not container.contains(self):
            raise ValueError(f"{self} not inside container {container}")
        return np.array((self.lo, self.hi, container.lo, container.hi),
                        dtype=np.int64)

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


def _steps(lo: np.ndarray, hi: np.ndarray, c_lo: np.ndarray,
           c_hi: np.ndarray) -> np.ndarray:
    """The run rule: which dimensions the runs of a box ``[lo, hi)`` in
    the row-major layout of its container ``[c_lo, c_hi)`` step
    through, for one box or a whole array of them (the last axis is
    the dimension).  The suffix of dimensions the box spans fully and
    the first partial dimension before it merge into single runs;
    every dimension before that steps from run to run."""
    full = (lo == c_lo) & (hi == c_hi)
    # suffix[..., d]: every dimension from d on is spanned fully
    suffix = np.logical_and.accumulate(full[..., ::-1], axis=-1)[..., ::-1]
    steps = np.zeros_like(full)
    steps[..., :-1] = ~suffix[..., 1:]
    return steps


def runs_within(lo: np.ndarray, hi: np.ndarray, c_lo: np.ndarray,
                c_hi: np.ndarray) -> np.ndarray:
    """The run count of every box ``[lo, hi)`` in the row-major layout
    of its container ``[c_lo, c_hi)``, row by row: the batched form of
    :meth:`Region.run_offsets`'s count, for whole piece tables."""
    counts: np.ndarray = np.where(_steps(lo, hi, c_lo, c_hi), hi - lo, 1).prod(axis=-1)
    return counts
