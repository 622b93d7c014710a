"""Shared infrastructure for the baseline I/O strategies.

The baselines model the pre-collective-I/O world: a striped row-major
file served by per-I/O-node daemons that process read/write requests
in arrival order.  :class:`BaselineRuntime` mirrors
:class:`repro.core.runtime.PandaRuntime` (same machine model, same
network, same file systems) so elapsed times are directly comparable.

File model: one logical file per dataset, striped round-robin across
the I/O nodes in fixed-size stripe units (:class:`StripedLayout`).
Each I/O node stores its stripes contiguously in a local file, exactly
like Intel CFS or a striped NFS.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.runtime import run_supervised
from repro.fs.cache import BufferCache
from repro.fs.filesystem import FileSystem
from repro.machine import MB, NAS_SP2, MachineSpec
from repro.mpi.datatypes import DataBlock
from repro.mpi.network import Network
from repro.sim import Simulator
from repro.sim.trace import Trace

__all__ = ["BaselineTags", "StripedLayout", "BaselineRuntime", "BaselineResult"]


class BaselineTags:
    WRITE = 30
    READ = 31
    ACK = 32
    DATA = 33
    FLUSH = 34
    FLUSH_ACK = 35
    SHUTDOWN = 36
    #: client-to-client transfers during two-phase permutation
    PERMUTE = 37


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
        if offset < 0 or offset + nbytes > self.total_bytes:
            raise ValueError(
                f"range [{offset}, {offset + nbytes}) outside file of "
                f"{self.total_bytes} bytes"
            )
        out = []
        pos = offset
        end = offset + nbytes
        while pos < end:
            unit = pos // self.stripe_bytes
            unit_end = (unit + 1) * self.stripe_bytes
            span = min(end, unit_end) - pos
            server = unit % self.n_servers
            local = (unit // self.n_servers) * self.stripe_bytes + (
                pos - unit * self.stripe_bytes
            )
            out.append((server, local, span))
            pos += span
        return out

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
        out = bytearray(self.total_bytes)
        pos = 0
        while pos < self.total_bytes:
            for server, local, span in self.map(
                pos, min(self.stripe_bytes - pos % self.stripe_bytes,
                         self.total_bytes - pos)
            ):
                out[pos : pos + span] = stores[server][local : local + span]
                pos += span
        return bytes(out)


@dataclass
class BaselineResult:
    """Outcome of one baseline run."""

    strategy: str
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
        if n_compute < 1 or n_io < 1:
            raise ValueError("need at least one compute and one I/O node")
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

    # -- the I/O daemon -----------------------------------------------------
    def _daemon(self, index: int, path: str):
        """Serve read/write requests in arrival order until shutdown."""
        comm = self.network.comm(self.server_rank(index))
        state = self.servers[index]
        state.fs.store.create(path, truncate=False)
        listen = {BaselineTags.WRITE, BaselineTags.READ, BaselineTags.FLUSH,
                  BaselineTags.SHUTDOWN}
        while True:
            msg = yield from comm.recv(tags=listen)
            if msg.tag == BaselineTags.SHUTDOWN:
                return
            yield comm.handle_s
            if msg.tag == BaselineTags.FLUSH:
                if state.cache is not None:
                    yield from state.cache.flush(path)
                yield from comm.send(msg.src, BaselineTags.FLUSH_ACK)
                continue
            offset, nbytes, block = msg.payload
            if msg.tag == BaselineTags.WRITE:
                data = block.to_bytes() if (block.is_real and state.fs.real) else None
                if state.cache is not None:
                    yield from state.cache.write(path, offset, data, nbytes)
                else:
                    yield from state.fs.disk.access(path, offset, nbytes,
                                                    write=True)
                    state.fs.store.write(path, offset, data, nbytes)
                yield from comm.send(msg.src, BaselineTags.ACK)
            else:  # READ
                if state.cache is not None:
                    raw = yield from state.cache.read(path, offset, nbytes)
                else:
                    yield from state.fs.disk.access(path, offset, nbytes,
                                                    write=False)
                    raw = state.fs.store.read(path, offset, nbytes)
                if raw is not None:
                    reply = DataBlock.real(np.frombuffer(raw, dtype=np.uint8))
                else:
                    reply = DataBlock.virtual(nbytes)
                yield from comm.send(msg.src, BaselineTags.DATA, reply,
                                     nbytes=nbytes)

    # -- execution ---------------------------------------------------------------
    def execute(
        self,
        path: str,
        client_fn: Callable[[int, "BaselineRuntime"], object],
        *,
        flush: bool,
    ) -> float:
        """Run one phase: spawn daemons and per-rank clients, optionally
        flush caches at the end (write barrier + fsync), shut down.
        Returns the elapsed simulated time of the phase."""
        t0 = self.sim.now
        daemons = [
            self.sim.spawn(self._daemon(i, path), name=f"bdaemon{i}")
            for i in range(self.n_io)
        ]
        clients = {
            rank: self.sim.spawn(client_fn(rank, self), name=f"bclient{rank}")
            for rank in range(self.n_compute)
        }
        run_supervised(self.sim, clients, daemons, self._shutdown(flush))
        return self.sim.now - t0

    def _shutdown(self, flush: bool):
        """The end of a phase whose clients all finished: flush every
        cache when asked (FLUSH/FLUSH_ACK), then SHUTDOWN every daemon."""
        comm = self.network.comm(0)
        if flush:
            for i in range(self.n_io):
                yield from comm.send(self.server_rank(i), BaselineTags.FLUSH)
                yield from comm.recv(src=self.server_rank(i),
                                     tag=BaselineTags.FLUSH_ACK)
        for i in range(self.n_io):
            yield from comm.send(self.server_rank(i), BaselineTags.SHUTDOWN)

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
