"""Per-I/O-node file system: the Unix-flavoured API Panda servers use.

``FileSystem`` hands out :class:`FileHandle` objects whose operations
are process helpers (``yield from fh.write(block)``), combining the
store (bytes) with the disk model (time).  Panda issues large aligned
requests itself, so the Panda path talks straight to the disk model;
the traditional-caching baseline layers :class:`repro.fs.cache.
BufferCache` between the two instead.
"""

from __future__ import annotations

from typing import Optional

from repro.fs.disk import DiskModel
from repro.fs.store import ExtentStore, MemoryStore
from repro.machine import MachineSpec
from repro.mpi.datatypes import DataBlock
from repro.sim import Simulator
from repro.sim.trace import Trace

__all__ = ["FileSystem", "FileHandle"]


class FileSystem:
    """One I/O node's file system."""

    def __init__(
        self,
        sim: Simulator,
        spec: MachineSpec,
        node: str = "ionode",
        real: bool = True,
        trace: Optional[Trace] = None,
        injector=None,
    ) -> None:
        self.sim = sim
        self.spec = spec
        self.node = node
        self.trace = trace
        #: optional :class:`repro.faults.FaultInjector`: transient disk
        #: faults are injected in the disk model and retried (with
        #: exponential backoff, up to the spec's budget) in FileHandle.
        self.injector = injector
        self.store = MemoryStore() if real else ExtentStore()
        self.disk = DiskModel(sim, spec, node=f"{node}.disk", trace=trace,
                              injector=injector)

    @property
    def real(self) -> bool:
        return self.store.real

    def open(self, path: str, mode: str = "r") -> "FileHandle":
        """Open ``path``; mode "w" truncates/creates, "r" requires the
        file to exist, "a" appends (creates if missing)."""
        if mode == "w":
            self.store.create(path, truncate=True)
            offset = 0
        elif mode == "a":
            self.store.create(path, truncate=False)
            offset = self.store.size(path)
        elif mode == "r":
            if not self.store.exists(path):
                raise FileNotFoundError(f"{self.node}: no such file {path!r}")
            offset = 0
        else:
            raise ValueError(f"bad mode {mode!r}")
        return FileHandle(self, path, mode, offset)

    def exists(self, path: str) -> bool:
        return self.store.exists(path)

    def size(self, path: str) -> int:
        return self.store.size(path)

    def delete(self, path: str) -> None:
        self.store.delete(path)

    def read_all_bytes(self, path: str) -> bytes:
        """Zero-time access to real file contents (verification only)."""
        if not self.real:
            raise ValueError("virtual file system holds no bytes")
        return self.store.read_all(path)


class FileHandle:
    """An open file with a position; operations are process helpers."""

    def __init__(self, fs: FileSystem, path: str, mode: str, offset: int) -> None:
        self.fs = fs
        self.path = path
        self.mode = mode
        self.offset = offset
        self.closed = False
        self.bytes_written = 0
        self.bytes_read = 0

    def _check_open(self, *, write: bool) -> None:
        if self.closed:
            raise ValueError(f"I/O on closed file {self.path!r}")
        if write and self.mode == "r":
            raise ValueError(f"file {self.path!r} opened read-only")

    def seek(self, offset: int) -> None:
        """Reposition; costs nothing now, but a following request that
        breaks sequentiality pays the seek penalty in the disk model."""
        if offset < 0:
            raise ValueError("negative seek")
        self.offset = offset

    def _access(self, offset: int, nbytes: int, *, write: bool):
        """One disk request, retried with exponential backoff on
        transient faults (fault-injected file systems only).  The store
        is untouched until a request succeeds, so replays are safe."""
        disk = self.fs.disk
        injector = self.fs.injector
        if injector is None:
            yield from disk.access(self.path, offset, nbytes, write=write)
            return
        from repro.faults import (MAX_RETRIES, FaultRecoveryError,
                                  TransientDiskError)

        attempt = 0
        while True:
            try:
                yield from disk.access(self.path, offset, nbytes, write=write)
                return
            except TransientDiskError as exc:
                attempt += 1
                if attempt > MAX_RETRIES:
                    raise FaultRecoveryError(
                        f"{self.fs.node}: {'write' if write else 'read'} of "
                        f"{nbytes}B at {self.path!r}+{offset} still failing "
                        f"after {MAX_RETRIES} retries"
                    ) from exc
                injector.note_retry(
                    "disk", node=self.fs.node, path=self.path,
                    offset=offset, attempt=attempt,
                )
                yield self.fs.sim.timeout(injector.backoff_delay(attempt))

    def write(self, block: DataBlock):
        """Write ``block`` at the current offset (timed).  The block's
        bytes are handed to the store as a read-only view (no
        intermediate copy); the store itself performs the one real copy
        into the file buffer, and only once the disk request has
        succeeded -- the block's memory must stay untouched until then."""
        self._check_open(write=True)
        data = block.to_buffer() if (block.is_real and self.fs.real) else None
        if self.fs.real and data is None and block.nbytes > 0:
            raise ValueError(
                "real file system requires real payloads (got virtual block)"
            )
        yield from self._access(self.offset, block.nbytes, write=True)
        self.fs.store.write(self.path, self.offset, data, block.nbytes)
        self.offset += block.nbytes
        self.bytes_written += block.nbytes

    def read(self, nbytes: int):
        """Read ``nbytes`` at the current offset (timed).  Returns a
        :class:`DataBlock` (real or virtual to match the store).  Real
        blocks wrap the store's read-only view zero-copy: a straight
        ``frombuffer``, no byte duplication, and mutation-proof because
        the view is read-only."""
        self._check_open(write=False)
        yield from self._access(self.offset, nbytes, write=False)
        raw = self.fs.store.read(self.path, self.offset, nbytes)
        self.offset += nbytes
        self.bytes_read += nbytes
        if raw is None:
            return DataBlock.virtual(nbytes)
        import numpy as np

        return DataBlock.real(np.frombuffer(raw, dtype=np.uint8))

    def fsync(self):
        """Flush to disk.  The write path is write-through in this model
        (every write is charged full disk time), so fsync is free; it is
        kept as an explicit, traced event because the paper's methodology
        calls it out ("We flush the data to disk using fsync for each
        write operation")."""
        self._check_open(write=False)
        if self.fs.trace is not None:
            self.fs.trace.emit(self.fs.sim.now, self.fs.node, "fsync", path=self.path)
        return
        yield  # pragma: no cover - makes this a generator

    def close(self) -> None:
        self.closed = True
