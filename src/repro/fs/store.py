"""Byte stores backing the simulated file systems.

Two implementations of one small interface:

- :class:`MemoryStore` -- holds real bytes in ``bytearray``s, so tests
  and examples can verify bit-exact round trips and reconstruct files
  (e.g. concatenating server files written with a ``BLOCK,*,*`` schema
  into a traditional-order array).
- :class:`ExtentStore` -- records only file sizes; used with virtual
  payloads for the paper-scale sweeps.

Stores are pure state -- no simulation time passes here; timing lives
in :class:`repro.fs.disk.DiskModel`.

Zero-copy contract: ``MemoryStore.read`` returns a **read-only**
``memoryview`` aliasing the file buffer -- one copy saved per read, and
mutating a returned view can never corrupt a committed file.  ``write``
accepts any C-contiguous buffer (bytes, memoryview, NumPy array) and
moves its bytes exactly once, straight into the file's allocation.
``reserve`` hands out a writable view of the unreadable tail
``[size, size + n)`` of the allocation, so a producer can assemble its
bytes in place, and ``commit`` makes them readable: the one copy is the
producer's own.  A reservation that is never committed leaves the file
as it was.  A truncating ``create`` keeps the allocation, so rewriting
a file (every timestep's "w" reopen) regrows nothing.  A read view is a
snapshot: a live view pins its ``bytearray``, and a write or
reservation on a pinned file first moves the file to a fresh buffer, so
no later write, truncation or delete changes what a held view shows.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.counters import COUNTERS

__all__ = ["MemoryStore", "ExtentStore"]


def _buffer_nbytes(data) -> int:
    nb = getattr(data, "nbytes", None)
    return nb if nb is not None else len(data)


def _check_eof(path: str, size: int, offset: int) -> None:
    if offset != size:
        raise ValueError(
            f"reservation at {path}+{offset} is not at EOF ({size}B)")


def _pinned(buf: bytearray) -> bool:
    """Whether a live view (a read or a reservation) may export ``buf``.  CPython reports
    exports only as ``BufferError`` from a resize, so shrink by one byte
    and grow back: O(1), the size never leaves the allocation.  An empty
    buffer cannot be probed this way; replacing it costs nothing, so it
    counts as pinned."""
    if not buf:
        return True
    try:
        buf.append(buf.pop())
    except BufferError:
        return True
    return False


class MemoryStore:
    """Real bytes, one buffer per path.

    ``len(buffer)`` is the file's *allocation*; its size is kept beside
    it.  Bytes at and past the size are stale (left by a truncation) and
    are never readable: ``read`` bounds-checks against the size and a
    write past EOF zero-fills the gap.  A reservation lives in that
    stale tail until it is committed; a write, truncation or delete of
    the file drops it.
    """

    real = True

    def __init__(self) -> None:
        self._files: Dict[str, bytearray] = {}
        self._sizes: Dict[str, int] = {}
        #: path -> (offset, nbytes) of its one uncommitted reservation
        self._reserved: Dict[str, Tuple[int, int]] = {}

    def create(self, path: str, truncate: bool = True) -> None:
        if path not in self._files:
            self._files[path] = bytearray()
        elif not truncate:
            return
        self._sizes[path] = 0
        self._reserved.pop(path, None)

    def exists(self, path: str) -> bool:
        return path in self._files

    def size(self, path: str) -> int:
        return self._sizes[path]

    def paths(self) -> list[str]:
        return sorted(self._files)

    def write(self, path: str, offset: int, data, nbytes: int) -> None:
        if data is None:
            raise ValueError("MemoryStore requires real bytes")
        if _buffer_nbytes(data) != nbytes:
            raise ValueError(
                f"write of {nbytes}B given {_buffer_nbytes(data)}B of data"
            )
        self._reserved.pop(path, None)
        buf = self._unpinned(path)
        size = self._sizes[path]
        if offset > size:
            # the gap reads as zeros, whether it lies in stale
            # allocation or past it
            stale = min(offset, len(buf))
            memoryview(buf)[size:stale] = bytes(stale - size)
            buf += bytes(offset - stale)
        if nbytes:
            # one memcpy: in place up to the end of the allocation, and
            # an append (the sequential-write case) for what is past it
            src = memoryview(data).cast("B")
            fit = min(nbytes, len(buf) - offset)
            memoryview(buf)[offset:offset + fit] = src[:fit]
            buf += src[fit:]
        self._sizes[path] = max(size, offset + nbytes)
        COUNTERS.bytes_copied += nbytes

    def _unpinned(self, path: str) -> bytearray:
        """The file's buffer, safe to resize and write in place: held
        views keep the old buffer, and with it their snapshot."""
        buf = self._files[path]
        if _pinned(buf):
            buf = self._files[path] = bytearray(
                memoryview(buf)[:self._sizes[path]])
        return buf

    def reserve(self, path: str, offset: int, nbytes: int) -> memoryview:
        """A writable view of ``[offset, offset + nbytes)`` past EOF,
        unreadable until :meth:`commit`.  ``offset`` must be the file's
        size.  The view must be dropped before the next reservation or
        write: while it lives it pins the buffer, and the next one moves
        the whole file to a fresh buffer."""
        _check_eof(path, self._sizes[path], offset)
        buf = self._unpinned(path)
        short = offset + nbytes - len(buf)
        if short > 0:
            buf += bytes(short)
        self._reserved[path] = (offset, nbytes)
        return memoryview(buf)[offset:offset + nbytes]

    def commit(self, path: str, offset: int, nbytes: int) -> None:
        """Make the reservation ``[offset, offset + nbytes)`` readable."""
        if self._reserved.pop(path, None) != (offset, nbytes):
            raise ValueError(
                f"commit of {path}+{offset} ({nbytes}B) matches no reservation")
        self._sizes[path] = offset + nbytes

    def read(self, path: str, offset: int, nbytes: int) -> memoryview:
        """A read-only view of ``[offset, offset + nbytes)`` -- zero-copy."""
        size = self._sizes[path]
        if offset + nbytes > size:
            raise ValueError(
                f"read past EOF: {path} has {size}B, "
                f"requested [{offset}, {offset + nbytes})"
            )
        return memoryview(self._files[path]).toreadonly()[offset : offset + nbytes]

    def read_all(self, path: str) -> bytes:
        return bytes(memoryview(self._files[path])[: self._sizes[path]])

    def delete(self, path: str) -> None:
        del self._files[path], self._sizes[path]
        self._reserved.pop(path, None)

    def total_bytes(self) -> int:
        return sum(self._sizes.values())


class ExtentStore:
    """Size-only store for virtual payloads.

    Reads validate against the recorded extent, so protocol bugs that
    would read past end-of-file still fail loudly in virtual mode.
    """

    real = False

    def __init__(self) -> None:
        self._sizes: Dict[str, int] = {}

    def create(self, path: str, truncate: bool = True) -> None:
        if truncate or path not in self._sizes:
            self._sizes[path] = 0

    def exists(self, path: str) -> bool:
        return path in self._sizes

    def size(self, path: str) -> int:
        return self._sizes[path]

    def paths(self) -> list[str]:
        return sorted(self._sizes)

    def write(self, path: str, offset: int, data: Optional[bytes], nbytes: int) -> None:
        self._sizes[path] = max(self._sizes[path], offset + nbytes)

    def reserve(self, path: str, offset: int, nbytes: int) -> None:
        """No bytes to assemble: only the EOF check."""
        _check_eof(path, self._sizes[path], offset)
        return None

    def commit(self, path: str, offset: int, nbytes: int) -> None:
        _check_eof(path, self._sizes[path], offset)
        self._sizes[path] = offset + nbytes

    def read(self, path: str, offset: int, nbytes: int) -> None:
        if offset + nbytes > self._sizes[path]:
            raise ValueError(
                f"read past EOF: {path} has {self._sizes[path]}B, "
                f"requested [{offset}, {offset + nbytes})"
            )
        return None

    def delete(self, path: str) -> None:
        del self._sizes[path]

    def total_bytes(self) -> int:
        return sum(self._sizes.values())
