"""Data payloads that may be real (NumPy-backed) or virtual (size-only).

The whole reproduction runs in one of two payload modes:

- **real** -- payloads carry actual bytes end-to-end, so tests can
  assert bit-exact round trips through the full protocol;
- **virtual** -- payloads carry only a byte count, so the 16-512 MB
  sweeps of the paper's figures run in milliseconds of wall time.  All
  geometry, message counts and simulated costs are identical.

:class:`DataBlock` is that union.  Code paths never branch on the mode
except at the final "touch the bytes" step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.counters import COUNTERS

__all__ = ["DataBlock"]


@dataclass(slots=True)
class DataBlock:
    """A block of array data: always a byte count, optionally the bytes.

    Real blocks hold the ndarray they were given, strided or not --
    typically a view of a client's chunk or of a file, so a piece
    travels without being packed; ``nbytes`` always equals
    ``array.nbytes`` then.  Virtual blocks hold ``array=None``.

    Slotted and immutable by convention, not frozen: one is built per
    piece (DESIGN.md section 9).
    """

    nbytes: int
    array: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        if self.array is not None and self.array.nbytes != self.nbytes:
            raise ValueError(
                f"nbytes={self.nbytes} but array has {self.array.nbytes} bytes"
            )

    @classmethod
    def real(cls, array: np.ndarray) -> "DataBlock":
        return cls(array.nbytes, array)

    @classmethod
    def virtual(cls, nbytes: int) -> "DataBlock":
        return cls(nbytes, None)

    @property
    def is_real(self) -> bool:
        return self.array is not None

    def __eq__(self, other: object) -> bool:
        """Value equality: the same size, and both virtual or both real
        with equal arrays of one dtype and shape.  The arrays are
        compared in place, so no byte is counted as copied."""
        if not isinstance(other, DataBlock):
            return NotImplemented
        a, b = self.array, other.array
        if a is None or b is None:
            return a is b and self.nbytes == other.nbytes
        return a.dtype == b.dtype and np.array_equal(a, b)

    def to_bytes(self) -> bytes:
        """Raw bytes of a real block (row-major).  This *copies*; prefer
        :meth:`to_buffer` when a read-only view suffices."""
        if self.array is None:
            raise ValueError("virtual DataBlock has no bytes")
        COUNTERS.bytes_copied += self.nbytes
        return self.array.tobytes()

    def to_buffer(self) -> memoryview:
        """Read-only byte view of a real block, in row-major order.

        Zero-copy for a C-contiguous array: the view aliases
        :attr:`array` (which in turn may alias a client's bound chunk or
        a store file) -- valid only while the block's producer leaves
        that memory untouched, which holds for the within-collective
        lifetimes the protocol creates.  A strided array is packed
        first, and the pack is counted.
        """
        arr = self.array
        if arr is None:
            raise ValueError("virtual DataBlock has no bytes")
        if not arr.flags.c_contiguous:
            COUNTERS.bytes_copied += self.nbytes
            arr = np.ascontiguousarray(arr)
        return memoryview(arr).cast("B").toreadonly()

    def __repr__(self) -> str:
        kind = "real" if self.is_real else "virtual"
        return f"DataBlock({kind}, {self.nbytes}B)"
