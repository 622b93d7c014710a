"""Contention primitives: FIFO resources and message stores.

:class:`Resource` models a server with fixed capacity -- a network link,
a disk arm, a CPU.  Acquisition is strictly FIFO, which keeps the
simulation deterministic and models the in-order service of a switch
port or disk queue.

:class:`Store` is an unbounded FIFO queue with blocking ``get`` --
the mailbox primitive under :mod:`repro.mpi`'s message matching.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Generator, Optional

from repro.sim.engine import Event, Simulator

__all__ = ["Resource", "Store"]


class Resource:
    """A FIFO multi-server resource.

    Usage from a process::

        yield resource.acquire()
        try:
            yield service_time  # a float of seconds
        finally:
            resource.release()

    or, equivalently, the one-shot helper::

        yield from resource.serve(service_time)
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = "") -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        # formatted once: acquire() runs millions of times per sweep
        self._acquire_name = f"acquire({name})"
        # shared pre-triggered event for uncontended grants: every such
        # grant is consumed inline by the engine (or skipped entirely by
        # callers that test ``_triggered``), so one immutable "granted"
        # event per resource replaces an allocation per acquire.  cancel
        # of a granted event releases the slot, which is per-call
        # behaviour and thus safe to share.
        self._granted = Event(sim, self._acquire_name)
        self._granted._triggered = True
        self._granted._value = self
        self._granted.callbacks = None
        self._in_use = 0
        self._waiters: deque[Event] = deque()
        # occupancy accounting (read by :mod:`repro.obs.metrics`): the
        # server-seconds integral up to the last acquire/release, and
        # the most slots ever held at once
        self._busy_time = 0.0
        self._last_change = 0.0
        self._peak = 0

    @property
    def in_use(self) -> int:
        return self._in_use

    def occupancy(self) -> tuple[int, float, float, int]:
        """``(in use, busy-time integral, last change, peak)``: the
        integral covers ``[0, last change]``."""
        return self._in_use, self._busy_time, self._last_change, self._peak

    def acquire(self) -> Event:
        """Return an event that fires when a server slot is granted."""
        rec = self.sim._control
        if rec is not None:  # controlled runs: record the footprint
            rec.note(self)
        if self._in_use < self.capacity and not self._waiters:
            # uncontended grant: hand back the shared already-triggered
            # event (succeed() on a waiter-less event only sets that
            # state anyway); the engine resumes the yielding process
            # inline.  The accounting is inlined -- a method call per
            # message adds up.
            in_use = self._in_use
            now = self.sim._now
            self._busy_time += in_use * (now - self._last_change)
            self._last_change = now
            self._in_use = in_use = in_use + 1
            if in_use > self._peak:
                self._peak = in_use
            return self._granted
        ev = Event(self.sim, self._acquire_name)
        self._waiters.append(ev)
        return ev

    def release(self) -> None:
        """Release one held slot, waking the next FIFO waiter if any."""
        rec = self.sim._control
        if rec is not None:
            rec.note(self)
        in_use = self._in_use
        if in_use <= 0:
            raise RuntimeError(f"release of idle resource {self.name!r}")
        now = self.sim._now
        self._busy_time += in_use * (now - self._last_change)
        self._last_change = now
        self._in_use = in_use - 1
        if self._waiters and self._in_use < self.capacity:
            self._in_use += 1  # same instant: busy-time integral unchanged
            self._waiters.popleft().succeed(self)

    def cancel(self, ev: Event) -> None:
        """Withdraw a pending acquisition (e.g. the waiter was
        interrupted by a fault-injected node crash).  If the slot was
        already granted -- the grant can race the interrupt within one
        instant -- it is released instead, so a dead process can never
        pin a shared resource."""
        rec = self.sim._control
        if rec is not None:
            rec.note(self)
        try:
            self._waiters.remove(ev)
        except ValueError:
            if ev.triggered:
                self.release()

    def serve(self, service_time: float) -> Generator[Event, Any, None]:
        """Process helper: acquire, hold for ``service_time``, release."""
        yield self.acquire()
        try:
            if service_time > 0:
                yield float(service_time)
        finally:
            self.release()


class Store:
    """An unbounded FIFO store with blocking ``get``.

    ``put`` never blocks.  ``get`` optionally takes a predicate; the
    *oldest* matching item is returned, preserving FIFO among matches
    (this is what MPI tag/source matching requires).
    """

    def __init__(self, sim: Simulator, name: str = "") -> None:
        self.sim = sim
        self.name = name
        self._get_name = f"get({name})"
        self._items: deque[Any] = deque()
        self._getters: deque[tuple[Event, Optional[Callable[[Any], bool]]]] = deque()
        # occupancy accounting, as Resource keeps it: the depth-seconds
        # integral up to the last put/get/try_get/clear, and the
        # deepest the queue has settled at
        self._area = 0.0
        self._last_change = 0.0
        self._peak = 0

    def __len__(self) -> int:
        return len(self._items)

    def occupancy(self) -> tuple[int, float, float, int]:
        """``(depth, depth-seconds integral, last change, peak)``, as
        :meth:`Resource.occupancy`."""
        return len(self._items), self._area, self._last_change, self._peak

    def put(self, item: Any) -> None:
        sim = self.sim
        rec = sim._control
        if rec is not None:  # controlled runs: record the footprint
            rec.note(self)
        items = self._items
        if items:  # an empty queue adds no depth-seconds
            self._area += len(items) * (sim._now - self._last_change)
        self._last_change = sim._now
        items.append(item)
        getters = self._getters
        if getters:
            # between dispatches no (getter, item) pair matches, so the
            # only matches a put can create involve the new item: hand
            # it to the oldest getter that accepts it.  Equivalent to
            # _dispatch, minus re-scanning items that cannot match.
            for g_idx, (ev, pred) in enumerate(getters):
                if pred is None or pred(item):
                    items.pop()
                    del getters[g_idx]
                    ev.succeed(item)
                    return
        if len(items) > self._peak:
            self._peak = len(items)

    def get(self, predicate: Optional[Callable[[Any], bool]] = None) -> Event:
        """Return an event that fires with the oldest matching item."""
        sim = self.sim
        rec = sim._control
        if rec is not None:
            rec.note(self)
        ev = Event(sim, self._get_name)
        items = self._items
        if items:
            self._area += len(items) * (sim._now - self._last_change)
        self._last_change = sim._now
        if items and not self._getters:
            # fast path: no getter queued ahead of us, so if an item
            # matches we can consume it right here -- exactly what
            # _dispatch would do, minus its scan machinery.  The event
            # comes back already triggered and is consumed inline.
            if predicate is None:
                match_idx: Optional[int] = 0
            else:
                match_idx = None
                for i_idx, item in enumerate(items):
                    if predicate(item):
                        match_idx = i_idx
                        break
            if match_idx is not None:
                item = items[match_idx]
                del items[match_idx]
                ev._triggered = True
                ev._value = item
                ev.callbacks = None
                return ev
            self._getters.append((ev, predicate))
        else:
            self._getters.append((ev, predicate))
            self._dispatch()
        return ev

    def try_get(self, predicate: Optional[Callable[[Any], bool]] = None) -> Any:
        """Synchronously pop and return the oldest matching item, or
        ``None`` when nothing matches.  Never blocks and never touches
        the simulation clock.

        Callers must not race this against their own pending blocking
        ``get`` on the same store: popping around a registered getter
        would reorder FIFO service.  (The mailbox discipline in
        :mod:`repro.mpi` guarantees this -- a rank is a single process,
        so it is either blocked in ``recv`` or polling, never both.)
        """
        rec = self.sim._control
        if rec is not None:
            rec.note(self)
        items = self._items
        for idx, item in enumerate(items):
            if predicate is None or predicate(item):
                now = self.sim._now
                self._area += len(items) * (now - self._last_change)
                self._last_change = now
                del items[idx]
                return item
        return None

    def clear(self) -> int:
        """Drop every queued item *and* every pending getter; returns
        the number of items discarded.  Models a node reboot: messages
        queued for a dead process are lost with it, and its registered
        getters must not steal deliveries meant for the reborn process.
        Only call this when no live process is blocked on the store."""
        rec = self.sim._control
        if rec is not None:
            rec.note(self)
        dropped = len(self._items)
        now = self.sim._now
        self._area += dropped * (now - self._last_change)
        self._last_change = now
        self._items.clear()
        self._getters.clear()
        return dropped

    def cancel(self, ev: Event) -> None:
        """Withdraw a pending getter (e.g. a receive that timed out).
        Without this, a later matching item would be consumed by -- and
        lost to -- an event nobody waits on any more.  No-op when the
        getter was already satisfied or never registered."""
        rec = self.sim._control
        if rec is not None:
            rec.note(self)
        for idx, (pending, _pred) in enumerate(self._getters):
            if pending is ev:
                del self._getters[idx]
                return

    def _dispatch(self) -> None:
        # repeatedly satisfy the oldest getter that has a matching item
        progress = True
        while progress and self._getters and self._items:
            progress = False
            for g_idx, (ev, pred) in enumerate(self._getters):
                match_idx = None
                if pred is None:
                    match_idx = 0
                else:
                    for i_idx, item in enumerate(self._items):
                        if pred(item):
                            match_idx = i_idx
                            break
                if match_idx is not None:
                    item = self._items[match_idx]
                    del self._items[match_idx]
                    del self._getters[g_idx]
                    ev.succeed(item)
                    progress = True
                    break
