"""The interconnect model.

One :class:`Network` owns, per rank, an *out* link and an *in* link
(FIFO :class:`~repro.sim.Resource` of capacity 1) plus a mailbox
(:class:`~repro.sim.Store`).  A transfer:

1. waits for the sender's out link,
2. waits for the receiver's in link (holding the out link -- this is
   safe: in links are never held while waiting, so no cycle exists),
3. holds both for ``nbytes / bandwidth``,
4. releases both; the message is delivered to the mailbox
   ``latency`` later (propagation does not occupy links).

A blocking send completes at step 4 (the local buffer is free).  The
link hold is a yielded delay (see :mod:`repro.sim.engine`): the instant it ends
is observed twice, by the link releases and by the sender's resume.
"""

from __future__ import annotations

from typing import Any

from repro.machine import MachineSpec
from repro.mpi.message import Message
from repro.sim import Resource, Simulator, Store
from repro.sim.trace import Trace

__all__ = ["Network"]


class Network:
    """A switch connecting ``n_nodes`` ranks under a :class:`MachineSpec`
    cost model."""

    def __init__(
        self,
        sim: Simulator,
        spec: MachineSpec,
        n_nodes: int,
        trace: Optional[Trace] = None,
        injector=None,
    ) -> None:
        if n_nodes < 1:
            raise ValueError("network needs at least one node")
        self.sim = sim
        self.spec = spec
        self.n_nodes = n_nodes
        self.trace = trace
        #: optional :class:`repro.faults.FaultInjector`; when set, each
        #: delivery may be dropped (droppable tags only) or delayed.
        self.injector = injector
        self.out_links = [
            Resource(sim, 1, name=f"out[{i}]") for i in range(n_nodes)
        ]
        self.in_links = [Resource(sim, 1, name=f"in[{i}]") for i in range(n_nodes)]
        self.mailboxes = [Store(sim, name=f"mbox[{i}]") for i in range(n_nodes)]
        # spec constants hoisted off the per-transfer path
        self._bandwidth = spec.network_bandwidth
        self._latency = spec.network_latency
        # accounting
        self.messages_sent = 0
        self.bytes_sent = 0
        #: messages put into any mailbox (the livelock guard's clock)
        self.deliveries = 0

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.n_nodes:
            raise ValueError(f"rank {rank} out of range [0, {self.n_nodes})")

    def transfer(self, src: int, dst: int, tag: int, payload: Any, nbytes: int):
        """Process generator performing one transfer.  It completes when
        the sender is free (links released), which is what a blocking
        send waits for."""
        self._check_rank(src)
        self._check_rank(dst)
        if src == dst:
            raise ValueError(f"self-send on rank {src} (tag {tag})")
        if nbytes < 0:
            raise ValueError("message size must be >= 0")
        sim = self.sim
        out_link = self.out_links[src]
        out_ev = out_link.acquire()
        # an uncontended acquire comes back already triggered; yielding
        # it would resume this generator inline anyway (the engine
        # consumes triggered waitables without suspending), so skipping
        # the yield is the same schedule minus a generator round-trip
        if not out_ev._triggered:
            try:
                yield out_ev
            except BaseException:
                # interrupted (node crash) while queued: withdraw so the
                # dead process cannot be granted -- and forever pin -- a slot
                out_link.cancel(out_ev)
                raise
        try:
            in_link = self.in_links[dst]
            in_ev = in_link.acquire()
            if not in_ev._triggered:
                try:
                    yield in_ev
                except BaseException:
                    in_link.cancel(in_ev)
                    raise
            try:
                transfer_time = nbytes / self._bandwidth
                if transfer_time > 0:
                    yield transfer_time
            finally:
                in_link.release()
        finally:
            out_link.release()
        self.messages_sent += 1
        self.bytes_sent += nbytes
        if self.trace is not None:
            # the span both links were held for (the streaming time;
            # queueing for the links is visible as the gap before it)
            self.trace.emit(
                sim.now, "net", "net_xfer",
                src=src, dst=dst, tag=tag, nbytes=nbytes,
                service=transfer_time,
            )
        extra = 0.0
        if self.injector is not None:
            dropped, extra = self.injector.message_fault(src, dst, tag, nbytes)
            if dropped:
                # the sender already paid for the transfer; the message
                # vanishes in flight, so the delivery never happens and
                # the receiver's timeout/retry machinery takes over
                return
        # one packed argument: queue entries carry a single arg slot, so
        # this avoids a trampoline allocation per message
        packed = (src, dst, tag, payload, nbytes)
        delay = self._latency + extra
        if delay > 0:
            sim._push(delay, self._deliver, packed)
        else:
            sim._post(self._deliver, packed)

    def _deliver(self, packed: tuple) -> None:
        src, dst, tag, payload, nbytes = packed
        msg = Message(src, dst, tag, payload, nbytes, arrived_at=self.sim.now)
        self.deliveries += 1
        self.mailboxes[dst].put(msg)
        if self.trace is not None:
            self.trace.emit(
                self.sim.now,
                "net",
                "message",
                src=src,
                dst=dst,
                tag=tag,
                nbytes=nbytes,
            )

    def comm(self, rank: int) -> "Communicator":
        from repro.mpi.comm import Communicator

        return Communicator(self, rank)
