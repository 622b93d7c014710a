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


@dataclass(frozen=True)
class DataBlock:
    """A block of array data: always a byte count, optionally the bytes.

    Real blocks hold a C-contiguous ndarray; ``nbytes`` always equals
    ``array.nbytes`` then.  Virtual blocks hold ``array=None``.
    """

    nbytes: int
    array: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        if self.array is not None:
            arr = np.ascontiguousarray(self.array)
            object.__setattr__(self, "array", arr)
            if arr.nbytes != self.nbytes:
                raise ValueError(
                    f"nbytes={self.nbytes} but array has {arr.nbytes} bytes"
                )

    @classmethod
    def real(cls, array: np.ndarray) -> "DataBlock":
        return cls(array.nbytes, array)  # __post_init__ makes it contiguous

    @classmethod
    def virtual(cls, nbytes: int) -> "DataBlock":
        return cls(nbytes, None)

    @property
    def is_real(self) -> bool:
        return self.array is not None

    def to_bytes(self) -> bytes:
        """Raw bytes of a real block (row-major).  This *copies*; prefer
        :meth:`to_buffer` when a read-only view suffices."""
        if self.array is None:
            raise ValueError("virtual DataBlock has no bytes")
        COUNTERS.bytes_copied += self.nbytes
        return self.array.tobytes()

    def to_buffer(self) -> memoryview:
        """Zero-copy read-only byte view of a real block.

        The view aliases :attr:`array` (which in turn may alias a
        client's bound chunk or a store file) -- valid only while the
        block's producer leaves that memory untouched, which holds for
        the within-collective lifetimes the protocol creates.
        """
        if self.array is None:
            raise ValueError("virtual DataBlock has no bytes")
        return memoryview(self.array).cast("B").toreadonly()

    def __repr__(self) -> str:
        kind = "real" if self.is_real else "virtual"
        return f"DataBlock({kind}, {self.nbytes}B)"
