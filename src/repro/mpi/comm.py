"""Per-rank communicator: the mpi4py-flavoured API processes use.

All operations are *process helpers*: invoke them with ``yield from``
inside a simulation process, e.g. ::

    yield from comm.send(dst=3, tag=FETCH, payload=req)
    msg = yield from comm.recv(tag=FETCH)

Local costs are charged by yielding seconds: ``yield comm.handle_s``
for the per-message handling overhead, ``yield comm.copy_s(nbytes,
runs)`` for a gather/scatter copy.

Blocking semantics follow the paper's implementation notes: ``send``
returns when the transfer has left the node (the SP2's blocking MPI
send), ``recv`` blocks until a matching message is in the mailbox.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional

from repro.faults import MAX_RETRIES
from repro.mpi.message import CONTROL_MESSAGE_BYTES, MESSAGE_HEADER_BYTES, Message
from repro.mpi.network import Network
from repro.sim import Event, SimulationError

__all__ = ["Communicator", "LivelockError", "LIVELOCK_TIMEOUTS"]

#: receive timeouts in a row, on one rank, with no message delivered
#: anywhere in between, that prove a livelock: four times the reliable
#: exchange's whole retry budget.
LIVELOCK_TIMEOUTS = 4 * MAX_RETRIES


class LivelockError(SimulationError):
    """The twin of the engine's deadlock check: a poll loop re-arms its
    receive timeout forever while nothing else happens, so the event
    queue never drains."""


class Communicator:
    """One rank's endpoint on a :class:`Network`."""

    def __init__(self, network: Network, rank: int) -> None:
        network._check_rank(rank)
        self.network = network
        self.rank = rank
        self.sim = network.sim
        self.spec = network.spec
        #: the per-message protocol-handling charge: ``yield comm.handle_s``
        self.handle_s = float(network.spec.request_handling_overhead)
        self._mailbox = network.mailboxes[rank]
        # livelock guard: network.deliveries at the last timeout, and
        # the timeouts in a row since the count last moved
        self._quiet_mark = -1
        self._quiet = 0

    # -- point to point -----------------------------------------------------
    def send(self, dst: int, tag: int, payload: Any = None, nbytes: Optional[int] = None):
        """Blocking send; completes when the transfer has left the node
        (links released) without waiting for the delivery event.
        ``nbytes`` defaults to the control-message wire size.

        Returns the transfer generator directly -- callers ``yield
        from`` it, so routing through an intermediate frame here would
        only add a hop to every resume of the transfer."""
        wire = CONTROL_MESSAGE_BYTES if nbytes is None else nbytes + MESSAGE_HEADER_BYTES
        return self.network.transfer(self.rank, dst, tag, payload, wire)

    def recv(self, src: Optional[int] = None, tag: Optional[int] = None,
             tags: Optional[Iterable[int]] = None,
             match: Optional[Callable[[Message], bool]] = None,
             timeout: Optional[float] = None):
        """Blocking receive.  Matches on source and/or tag; ``tags``
        accepts any of a set (used by serve loops that listen for both
        data and completion messages).  FIFO among matches.

        ``match`` further filters on message content (the reliability
        layer matches replies to the exact outstanding request, so a
        stale duplicate from a retried exchange can never be taken for
        the current one).  With ``timeout``, returns ``None`` when no
        matching message arrives within ``timeout`` seconds; the
        pending receive is withdrawn so a late message stays in the
        mailbox for a future receive instead of vanishing."""
        pred = self._match_pred(src, tag, tags, match)
        mailbox = self.network.mailboxes[self.rank]
        if timeout is None:
            msg = yield mailbox.get(pred)
            return msg
        get_ev = mailbox.get(pred)
        idx, value = yield self.sim.any_of([get_ev, self.sim.timeout(timeout)])
        if idx == 0:
            return value
        if get_ev.triggered:
            # the message raced the timeout within the same instant and
            # was already consumed from the mailbox: deliver it
            return get_ev.value
        mailbox.cancel(get_ev)
        if self._quiet_mark != self.network.deliveries:
            self._quiet_mark = self.network.deliveries
            self._quiet = 0
        self._quiet += 1
        if self._quiet > LIVELOCK_TIMEOUTS:
            raise LivelockError(
                f"livelock: rank {self.rank} timed out {self._quiet} times "
                f"in a row with no message delivered anywhere "
                f"(t={self.sim.now!r})"
            )
        return None

    def _match_pred(self, src: Optional[int], tag: Optional[int],
                    tags: Optional[Iterable[int]],
                    match: Optional[Callable[[Message], bool]],
                    ) -> Callable[[Message], bool]:
        """Build the message-matching predicate shared by ``recv`` and
        ``try_recv``.  The returned closure tests only the criteria
        actually given -- it runs once per queued message per receive,
        so dead ``is not None`` checks inside it are pure overhead."""
        if tag is not None and tags is not None:
            raise ValueError("pass either tag or tags, not both")
        if tags is not None:
            tagset = frozenset(tags)
            if src is None and match is None:
                return lambda msg: msg.tag in tagset
            return lambda msg: (
                msg.tag in tagset
                and (src is None or msg.src == src)
                and (match is None or match(msg))
            )
        if tag is not None:
            if src is None and match is None:
                return lambda msg: msg.tag == tag
            if src is None:
                return lambda msg: msg.tag == tag and match(msg)
            if match is None:
                return lambda msg: msg.tag == tag and msg.src == src
            return lambda msg: (
                msg.tag == tag and msg.src == src and match(msg)
            )
        if src is not None:
            if match is None:
                return lambda msg: msg.src == src
            return lambda msg: msg.src == src and match(msg)
        if match is not None:
            return match
        return lambda msg: True

    def match_pred(self, src: Optional[int] = None, tag: Optional[int] = None,
                   tags: Optional[Iterable[int]] = None,
                   match: Optional[Callable[[Message], bool]] = None,
                   ) -> Callable[[Message], bool]:
        """Public form of the predicate builder, for serve loops that
        hoist a loop-invariant predicate and receive with
        :meth:`recv_ev` instead of paying closure construction (and a
        delegating generator frame) per message."""
        return self._match_pred(src, tag, tags, match)

    def recv_ev(self, pred: Callable[[Message], bool]) -> Event:
        """Blocking receive, event form: ``msg = yield comm.recv_ev(p)``
        is :meth:`recv` with a prebuilt predicate and without the
        intermediate generator frame.  The hot serve loops build their
        predicate once per op and receive with this."""
        return self._mailbox.get(pred)

    def try_recv(self, src: Optional[int] = None, tag: Optional[int] = None,
                 tags: Optional[Iterable[int]] = None,
                 match: Optional[Callable[[Message], bool]] = None,
                 ) -> Optional[Message]:
        """Non-blocking receive: the oldest matching message already in
        the mailbox, or ``None``.  Plain call (not ``yield from``) --
        it consumes no simulated time.  Non-matching messages are left
        queued (the inter-op scheduler uses this to exert backpressure
        by refusing REQUESTs while its admission queue is full)."""
        pred = self._match_pred(src, tag, tags, match)
        return self.network.mailboxes[self.rank].try_get(pred)

    # -- local costs ---------------------------------------------------------
    def compute(self, seconds: float):
        """Process helper: charge ``seconds`` (an int is taken as a
        float) of local CPU time on this rank; nothing if not positive."""
        if seconds > 0:
            yield float(seconds)

    def copy_s(self, nbytes: int, runs: int = 1) -> float:
        """The charge for a gather/scatter memory copy:
        ``yield comm.copy_s(nbytes, runs)``."""
        return self.spec.copy_time(nbytes, runs)

    # -- simple collectives (used by baselines and the harness) ---------------
    def bcast_send(self, ranks: Iterable[int], tag: int, payload: Any = None,
                   nbytes: Optional[int] = None):
        """Root side of a broadcast: sequential blocking sends, the way
        Panda's master server informs the other servers."""
        for r in ranks:
            if r == self.rank:
                continue
            yield from self.send(r, tag, payload, nbytes)
