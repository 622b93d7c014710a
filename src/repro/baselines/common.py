"""Shared infrastructure for the baseline I/O strategies.

The baselines model the pre-collective-I/O world: a striped row-major
file served by per-I/O-node daemons that process read/write requests
in arrival order (:mod:`repro.baselines.daemon`).  :class:`BaselineRuntime`
mirrors :class:`repro.core.runtime.PandaRuntime` (same machine model,
same network, same file systems, same supervisor) so elapsed times are
directly comparable.  It is also the one way a strategy runs: a phase
is :meth:`~BaselineRuntime.execute`, and every request to a daemon is
one round trip of :meth:`~BaselineRuntime.request`, made for a
strategy's pieces by :meth:`~BaselineRuntime.exchange`.  The messages
are the BASELINE rows of :data:`repro.core.protocol.MESSAGES`;
``python -m repro lint`` checks this module against them in the role
``baseline``.

File model: one logical file per dataset, striped round-robin across
the I/O nodes in fixed-size stripe units (:class:`StripedLayout`).
Each I/O node stores its stripes contiguously in a local file, exactly
like Intel CFS or a striped NFS.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

import numpy as np

from repro.baselines.daemon import serve
from repro.core.protocol import ArraySpec, Tags
from repro.core.runtime import run_supervised
from repro.counters import COUNTERS
from repro.fs.cache import BufferCache
from repro.fs.filesystem import FileSystem
from repro.machine import MB, NAS_SP2, MachineSpec
from repro.mpi.datatypes import DataBlock
from repro.mpi.network import Network
from repro.schema.regions import Region
from repro.sim import Simulator
from repro.sim.trace import Trace

__all__ = ["StripedLayout", "BaselineRuntime", "BaselineResult", "chunk_runs",
           "split_runs"]


#: one piece of an exchange: ``(server, offset, nbytes, runs, view)``,
#: ``nbytes`` at ``offset`` of daemon ``server``'s file, held by
#: ``view`` of the rank's memory (``None`` in virtual mode) in ``runs``
#: strided runs.
Piece = Tuple[int, int, int, int, Optional[np.ndarray]]


@dataclass(frozen=True)
class StripedLayout:
    """Round-robin striping of a linear byte space across servers."""

    total_bytes: int
    n_servers: int
    stripe_bytes: int

    def __post_init__(self) -> None:
        if self.stripe_bytes < 1 or self.n_servers < 1:
            raise ValueError("bad striping parameters")

    def map(self, offset: int, nbytes: int) -> List[Tuple[int, int, int]]:
        """Split ``[offset, offset+nbytes)`` at stripe boundaries.
        Returns ``(server, server_local_offset, nbytes)`` pieces in
        ascending global-offset order."""
        server, local, span, _ = self._split(offset, nbytes)
        return list(zip(server.tolist(), local.tolist(), span.tolist()))

    def pieces(self, offsets, nbytes: int,
               buf: Optional[np.ndarray]) -> Iterator[Piece]:
        """Exchange pieces of the file's runs ``[offsets[i], offsets[i] +
        nbytes)``, each split at stripe boundaries, held in order by the
        flat byte array ``buf`` (``None`` in virtual mode)."""
        server, local, span, at = self._split(offsets, nbytes)
        for s, l, n, a in zip(server.tolist(), local.tolist(), span.tolist(),
                              at.tolist()):
            yield s, l, n, 1, None if buf is None else buf[a:a + n]

    def _split(self, offsets, nbytes: int):
        """:func:`split_runs` at stripe boundaries, each piece's stripe
        mapped to its server and the offset in that server's file."""
        offsets = np.atleast_1d(np.asarray(offsets, dtype=np.int64))
        bad = (offsets < 0) | (offsets + nbytes > self.total_bytes)
        if bad.any():
            offset = int(offsets[bad][0])
            raise ValueError(
                f"range [{offset}, {offset + nbytes}) outside file of "
                f"{self.total_bytes} bytes"
            )
        unit, lo, span, at = split_runs(offsets, nbytes, self.stripe_bytes)
        local = (unit // self.n_servers - unit) * self.stripe_bytes + lo
        return unit % self.n_servers, local, span, at

    def server_bytes(self, server: int) -> int:
        """Total bytes held by ``server``."""
        full_units = self.total_bytes // self.stripe_bytes
        rem = self.total_bytes - full_units * self.stripe_bytes
        if full_units > server:
            n = (full_units - server - 1) // self.n_servers + 1
        else:
            n = 0
        total = n * self.stripe_bytes
        if rem and full_units % self.n_servers == server:
            total += rem
        return total

    def gather_bytes(self, stores: Dict[int, bytes]) -> bytes:
        """Reassemble the linear file from per-server byte strings."""
        return b"".join(stores[server][local:local + span] for server,
                        local, span in self.map(0, self.total_bytes))


def split_runs(starts: np.ndarray, length: int, unit: int
               ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Split the runs ``[starts[i], starts[i] + length)`` at multiples
    of ``unit``.  Returns, per piece in run order, the index of the
    ``unit``-sized block it falls in, its start, its length and its
    position in the runs laid end to end."""
    starts = np.asarray(starts, dtype=np.int64)
    if length <= 0:
        starts = starts[:0]
    first = starts // unit
    count = (starts + (length - 1)) // unit - first + 1
    run = np.repeat(np.arange(starts.size), count)
    block = first[run] + np.arange(run.size) - np.repeat(np.cumsum(count) - count, count)
    lo = np.maximum(starts[run], block * unit)
    hi = np.minimum(starts[run] + length, (block + 1) * unit)
    return block, lo, hi - lo, run * length + lo - starts[run]


def chunk_runs(spec: ArraySpec, rank: int) -> Tuple[np.ndarray, int]:
    """:meth:`~repro.schema.regions.Region.run_offsets` of ``rank``'s
    memory chunk in the whole array: the element offset of each of its
    contiguous runs in the array's row-major order, ascending, and the
    run length.  Run ``i`` is the chunk's elements ``[i * length,
    (i + 1) * length)``."""
    region = spec.memory_schema.chunk(rank).region
    return region.run_offsets(Region.from_shape(spec.shape))


@dataclass
class BaselineResult:
    """Outcome of one baseline run."""

    kind: str
    total_bytes: int
    elapsed: float
    runtime: "BaselineRuntime"

    @property
    def throughput(self) -> float:
        return self.total_bytes / self.elapsed if self.elapsed > 0 else float("inf")


@dataclass
class _ServerState:
    fs: FileSystem
    cache: Optional[BufferCache]


class BaselineRuntime:
    """Machine + I/O daemons for the baseline strategies.

    ``use_cache`` enables the per-I/O-node buffer cache (traditional
    caching); without it requests go straight to the disk model (naive
    striping, and the data path of two-phase I/O).
    """

    def __init__(
        self,
        n_compute: int,
        n_io: int,
        spec: MachineSpec = NAS_SP2,
        real_payloads: bool = True,
        use_cache: bool = False,
        cache_bytes: int = 8 * MB,
        cache_block_bytes: int = 64 * 1024,
        stripe_bytes: int = 64 * 1024,
        trace: bool = False,
    ) -> None:
        spec.check_nodes(n_compute, n_io)
        self.n_compute = n_compute
        self.n_io = n_io
        self.spec = spec
        self.real_payloads = real_payloads
        self.stripe_bytes = stripe_bytes
        self.trace = Trace() if trace else None
        self.sim = Simulator()
        self.network = Network(self.sim, spec, n_compute + n_io, trace=self.trace)
        self.servers: List[_ServerState] = []
        for i in range(n_io):
            fs = FileSystem(self.sim, spec, node=f"ionode{i}",
                            real=real_payloads, trace=self.trace)
            cache = None
            if use_cache:
                cache = BufferCache(
                    self.sim, spec, fs.disk, fs.store,
                    capacity_bytes=cache_bytes,
                    block_bytes=cache_block_bytes,
                    trace=self.trace, node=f"ionode{i}.cache",
                )
            self.servers.append(_ServerState(fs=fs, cache=cache))

    def server_rank(self, i: int) -> int:
        return self.n_compute + i

    def layout(self, total_bytes: int) -> StripedLayout:
        return StripedLayout(total_bytes, self.n_io, self.stripe_bytes)

    # -- talking to a daemon ---------------------------------------------------
    def request(self, comm, kind: str, server: int, offset: int = 0,
                nbytes: int = 0, view: Optional[np.ndarray] = None):
        """One round trip with daemon ``server``, the one way a baseline
        talks to it: ``write`` ``nbytes`` at ``offset`` (the bytes of
        ``view`` in real mode), ``read`` them, or ``flush`` the daemon's
        cache.  Returns the reply's payload: a read's DataBlock."""
        write, flush = kind == "write", kind == "flush"
        block = None
        if write:
            block = (DataBlock.real(view) if self.real_payloads
                     else DataBlock.virtual(nbytes))
        dst = self.server_rank(server)
        # the tags are named at the sites, where panda-lint reads them
        yield from comm.send(
            dst, Tags.DAEMON_WRITE if write else
            Tags.DAEMON_FLUSH if flush else Tags.DAEMON_READ,
            None if flush else (offset, nbytes, block),
            nbytes=nbytes if write else None)
        msg = yield from comm.recv(
            src=dst, tag=Tags.DAEMON_ACK if write else
            Tags.DAEMON_FLUSH_ACK if flush else Tags.DAEMON_DATA)
        return msg.payload

    def exchange(self, comm, kind: str, pieces: Iterable[Piece]):
        """The piece exchange: write or read ``pieces`` in order, one
        request at a time.  A write of a piece held in several strided
        runs first charges gathering it; a read fills the piece's view."""
        for server, offset, nbytes, runs, view in pieces:
            if kind == "write" and runs > 1:
                yield comm.copy_s(nbytes, runs)
            reply = yield from self.request(comm, kind, server, offset,
                                            nbytes, view)
            if kind == "read" and view is not None:
                view[...] = reply.array.view(view.dtype).reshape(view.shape)
                COUNTERS.bytes_copied += nbytes

    # -- execution ---------------------------------------------------------------
    def require_data(self, data) -> None:
        """Refuse a real-payload phase without bound local arrays up
        front, before a client fails on them inside the run."""
        if self.real_payloads and data is None:
            raise ValueError("real payloads need bound local arrays (data)")

    def execute(self, kind: str, total_bytes: int, paths: Sequence[str],
                client_fn: Callable[[int, "BaselineRuntime"], object]
                ) -> BaselineResult:
        """Run one phase of a strategy, a ``write`` or ``read`` of
        ``total_bytes``: a daemon per I/O node, serving ``paths[i]`` on
        node ``i``, and a client ``client_fn(rank, rt)`` per compute
        rank.  When every client is done, a write flushes the caches
        (write barrier + fsync); then the daemons shut down."""
        if kind not in ("write", "read"):
            raise ValueError(f"bad kind {kind!r}")
        t0 = self.sim.now
        daemons = [
            self.sim.spawn(serve(self.network.comm(self.server_rank(i)),
                                 state.fs, state.cache, path),
                           name=f"bdaemon{i}")
            for i, (state, path) in enumerate(zip(self.servers, paths))
        ]
        clients = {
            rank: self.sim.spawn(client_fn(rank, self), name=f"bclient{rank}")
            for rank in range(self.n_compute)
        }
        run_supervised(self.sim, clients, daemons,
                       self._shutdown(kind == "write"))
        return BaselineResult(kind, total_bytes, self.sim.now - t0, self)

    def _shutdown(self, flush: bool):
        """The end of a phase whose clients all finished: flush every
        cache when asked, then shut every daemon down."""
        comm = self.network.comm(0)
        if flush:
            for i in range(self.n_io):
                yield from self.request(comm, "flush", i)
        for i in range(self.n_io):
            yield from comm.send(self.server_rank(i), Tags.DAEMON_SHUTDOWN)

    # -- verification ----------------------------------------------------------
    def gather_file(self, path: str, total_bytes: int) -> bytes:
        """Reassemble the striped file's bytes (real mode)."""
        if not self.real_payloads:
            raise ValueError("gather_file requires real payloads")
        layout = self.layout(total_bytes)
        stores = {}
        for i, st in enumerate(self.servers):
            stores[i] = (
                st.fs.read_all_bytes(path) if st.fs.exists(path) else b""
            )
            # pad to expected length (sparse tails)
            need = layout.server_bytes(i)
            if len(stores[i]) < need:
                stores[i] = stores[i] + b"\x00" * (need - len(stores[i]))
        return layout.gather_bytes(stores)
