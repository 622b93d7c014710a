"""The discrete-event engine: clock, event heap, processes, waitables.

Design
------
A :class:`Simulator` owns a priority queue of ``[time, sequence,
callback, arg]`` entries.  Ties in time are broken by insertion order,
which makes every simulation fully deterministic.

Zero-delay entries -- the dominant case: event triggers and process
resumes -- bypass the heap through a FIFO deque (``_ready``).  Because
the sequence number is globally monotone and zero-delay entries always
carry the current time, draining ``min(heap top, deque head)`` by
``(time, seq)`` dispatches events in *exactly* the order a pure heap
would: the fast path changes wall-clock cost only, never simulated
behaviour.

Entries are mutable lists recycled through a per-simulator free list
(``_free``): the dispatch loop nulls an entry's callback/argument slots
and returns it to the slab, so a sweep that queues millions of events
reuses a handful of list objects instead of allocating one tuple per
event.  A recycled entry never retains references to payloads (see
``tests/test_sim_engine.py::test_slab_entries_do_not_leak_args``).

Simulation *processes* are Python generators.  A process advances by
``yield``-ing a waitable -- a :class:`Timeout`, an :class:`Event`,
another :class:`Process`, or a combinator (:class:`AllOf`,
:class:`AnyOf`).  When the waitable fires, the engine resumes the
generator, sending in the waitable's value.  A failed waitable raises
inside the generator at the ``yield``, so ordinary ``try``/``except``
works for error handling.

A process charges simulated time by yielding the delay itself, a
``float`` of seconds: ``yield 0.25`` is ``yield sim.timeout(0.25)``
without the event object.  A positive delay is one heap entry that
resumes the process directly; ``0.0`` continues inline; a negative or
NaN delay raises :class:`ValueError` at the ``yield``.

Two throughput shortcuts deliberately *reorder* same-instant work
while staying inside the engine's causal contract (an entry can run at
its timestamp any time after the callback that queued it finishes;
see DESIGN.md section 9 for the argument):

- a process that yields an **already-triggered** waitable is resumed
  inline by :meth:`Process._resume` instead of round-tripping a
  zero-delay entry through the queue;
- :meth:`Timeout._fire` invokes its callbacks synchronously at the
  tail of its own dispatch instead of queueing them (a yielded delay's
  entry resumes its process the same way).

Both correspond to dispatching the would-be entry immediately -- a
choice panda-mc (:mod:`repro.analysis.mc`) explores and the golden
determinism tests pin: simulated timings are bit-identical.

The engine is single-threaded and re-entrant only through the event
loop; callbacks must not call :meth:`Simulator.run`.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Generator, Iterable, List, Optional, Tuple

from repro.counters import COUNTERS

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "Interrupt",
    "Process",
    "SimulationError",
    "Simulator",
    "Timeout",
]

ProcessGenerator = Generator[Any, Any, Any]

#: queue entry layout: ``[time, seq, callback, arg]``.  Lists, not
#: tuples, so the slab can recycle them (heapq compares (time, seq)
#: first; seq is globally unique, so the incomparable tail is never
#: reached).
Entry = List[Any]


class SimulationError(RuntimeError):
    """Raised when the simulation reaches an inconsistent state
    (deadlock with pending processes, double-firing an event, ...)."""


class Interrupt(Exception):
    """Thrown into a process that is interrupted via
    :meth:`Process.interrupt`.  ``cause`` carries the reason."""

    def __init__(self, cause: object = None) -> None:
        super().__init__(cause)
        self.cause = cause


def _apply(pack: Tuple[Callable[..., None], tuple]) -> None:
    """Trampoline for the rare multi-/zero-argument ``schedule`` call:
    entries carry exactly one argument slot, so other arities are
    packed into it."""
    pack[0](*pack[1])


class Event:
    """A one-shot occurrence that processes can wait on.

    An event is *pending* until :meth:`succeed` or :meth:`fail` is
    called, after which it is *triggered* and holds a value (or an
    exception).  Waiting on an already-triggered event resumes the
    waiter immediately (at the current simulation time).
    """

    __slots__ = ("sim", "callbacks", "_value", "_exc", "_triggered", "_defused", "name")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        self.callbacks: Optional[list[Optional[Callable[[Event], None]]]] = []
        self._value: Any = None
        self._exc: Optional[BaseException] = None
        self._triggered = False
        #: a failure is "defused" once someone observes it (waits on the
        #: event or reads its exception); undefused failures abort the run.
        self._defused = False

    # -- state ---------------------------------------------------------
    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def ok(self) -> bool:
        """True once the event has succeeded."""
        return self._triggered and self._exc is None

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError(f"event {self!r} has no value yet")
        if self._exc is not None:
            raise self._exc
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        if self._triggered and self._exc is not None:
            self._defused = True
        return self._exc if self._triggered else None

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        # _trigger inlined: success is the per-message hot path
        if self._triggered:
            raise SimulationError(f"event {self!r} already triggered")
        self._triggered = True
        self._value = value
        callbacks, self.callbacks = self.callbacks, None
        if callbacks:
            post = self.sim._post
            for cb in callbacks:
                if cb is not None:  # withdrawn (tombstoned) callbacks
                    post(cb, self)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event with an exception."""
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._trigger(None, exc)
        return self

    def _trigger(self, value: Any, exc: Optional[BaseException]) -> None:
        if self._triggered:
            raise SimulationError(f"event {self!r} already triggered")
        self._triggered = True
        self._value = value
        self._exc = exc
        callbacks, self.callbacks = self.callbacks, None
        assert callbacks is not None
        post = self.sim._post
        for cb in callbacks:
            if cb is not None:
                post(cb, self)

    # -- waiting ---------------------------------------------------------
    def add_callback(self, cb: Callable[["Event"], None]) -> int:
        """Register ``cb(event)``; runs immediately (via the event queue)
        if the event has already triggered.  Returns a token accepted by
        :meth:`discard_token` (or ``-1`` when nothing was registered
        because the event had triggered)."""
        self._defused = True
        if self._triggered:
            self.sim._post(cb, self)
            return -1
        cbs = self.callbacks
        assert cbs is not None
        cbs.append(cb)
        return len(cbs) - 1

    def discard_token(self, token: int) -> None:
        """O(1) withdrawal of the callback registered under ``token``
        (from :meth:`add_callback`).  A mid-list slot is tombstoned --
        not removed -- so other tokens stay valid; the tail is popped
        (with any tombstones now trailing), so the repeated
        register-then-withdraw pattern of AnyOf races leaves nothing
        behind on a long-lived event.  No-op once the event has
        triggered or for the ``-1`` nothing-registered token."""
        cbs = self.callbacks
        if cbs is not None and 0 <= token < len(cbs):
            if token == len(cbs) - 1:
                cbs.pop()
                while cbs and cbs[-1] is None:
                    cbs.pop()
            else:
                cbs[token] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self._triggered else "pending"
        label = f" {self.name!r}" if self.name else ""
        return f"<{type(self).__name__}{label} {state}>"


class Timeout(Event):
    """An event that fires ``delay`` seconds after creation.  A process
    that only waits yields the delay itself instead (module docstring);
    a Timeout is for racing a delay against other events (``any_of``)."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if not delay >= 0:  # NaN fails this too
            raise ValueError(f"timeout delay must be >= 0, got {delay!r}")
        # Event.__init__ inlined (timeouts are created per message); no
        # name either -- __repr__ renders the delay on demand instead
        self.sim = sim
        self.name = ""
        self.callbacks = []
        self._value = None
        self._exc = None
        self._triggered = False
        self._defused = False
        self.delay = delay
        if delay == 0.0:
            sim._post(self._fire, value)
        else:
            sim._push(delay, self._fire, value)

    def _fire(self, value: Any) -> None:
        # succeed() with synchronous callbacks: _fire only ever runs as
        # a dispatched entry's callback, so invoking the waiters here is
        # the same as dispatching them as the immediately-next entries
        # at this timestamp -- one queue round-trip less per timeout.
        if self._triggered:
            raise SimulationError(f"event {self!r} already triggered")
        self._triggered = True
        self._value = value
        callbacks, self.callbacks = self.callbacks, None
        if callbacks:
            for cb in callbacks:
                if cb is not None:
                    cb(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self._triggered else "pending"
        return f"<Timeout({self.delay:g}) {state}>"


class AllOf(Event):
    """Fires when every child event has succeeded; value is the list of
    child values in the order given.  Fails as soon as any child fails."""

    __slots__ = ("_children", "_remaining", "_tokens")

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim, name="all_of")
        self._children = list(events)
        self._remaining = len(self._children)
        if self._remaining == 0:
            self.succeed([])
            return
        self._tokens = [ev.add_callback(self._on_child) for ev in self._children]

    def _on_child(self, ev: Event) -> None:
        if self._triggered:
            return
        if ev.exception is not None:
            self.fail(ev.exception)
            # abandon the branches still pending so they do not keep a
            # dead closure registered forever
            for child, token in zip(self._children, self._tokens):
                child.discard_token(token)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([c.value for c in self._children])


class AnyOf(Event):
    """Fires as soon as one child triggers; value is ``(index, value)``
    of the first child to succeed.  Fails if the first child to trigger
    failed."""

    __slots__ = ("_children", "_child_cbs", "_tokens")

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim, name="any_of")
        self._children = list(events)
        if not self._children:
            raise ValueError("AnyOf requires at least one event")
        self._child_cbs: list[Callable[[Event], None]] = []
        self._tokens: list[int] = []
        for idx, ev in enumerate(self._children):
            cb = lambda e, i=idx: self._on_child(i, e)  # noqa: E731
            self._child_cbs.append(cb)
            self._tokens.append(ev.add_callback(cb))

    def _on_child(self, idx: int, ev: Event) -> None:
        if self._triggered:
            return
        if ev.exception is not None:
            self.fail(ev.exception)
        else:
            self.succeed((idx, ev.value))
        # the race is decided: withdraw the losing branches' callbacks
        # from their (possibly never-triggering) events -- O(1) each via
        # the registration tokens
        tokens = self._tokens
        for j, child in enumerate(self._children):
            if j != idx:
                child.discard_token(tokens[j])
        self._child_cbs = []
        self._tokens = []


class Process(Event):
    """A running simulation coroutine.

    A process is itself an event that triggers when the coroutine
    returns (value = the generator's return value) or raises (failure).
    Processes may therefore be ``yield``-ed by other processes to join
    on them.
    """

    #: ``_waiting_on`` is the pending :class:`Event`, or the wake token
    #: of a pending yielded delay (the ``int`` seq of its heap entry),
    #: or ``None`` while the process runs.
    __slots__ = ("_gen", "_waiting_on")

    def __init__(self, sim: "Simulator", gen: ProcessGenerator, name: str = "") -> None:
        if not hasattr(gen, "send"):
            raise TypeError(f"Process requires a generator, got {type(gen).__name__}")
        # Event.__init__ inlined: one Process per message at sweep scale
        self.sim = sim
        self.name = name or getattr(gen, "__name__", "process")
        self.callbacks = []
        self._value = None
        self._exc = None
        self._triggered = False
        self._defused = False
        self._gen = gen
        self._waiting_on: Optional[object] = None
        sim._post(self._resume, sim._init_sentinel)
        sim._live_processes += 1

    @property
    def is_alive(self) -> bool:
        return not self._triggered

    def interrupt(self, cause: object = None) -> None:
        """Throw :class:`Interrupt` into the process at its current
        ``yield``.  No-op on a finished process."""
        if self._triggered:
            return
        target = _InterruptResume(self.sim, Interrupt(cause))
        self.sim._post(self._resume, target)

    def _wake(self, token: int) -> None:
        """Dispatch of a yielded delay's heap entry.  ``token`` is the
        entry's own seq, which ``_waiting_on`` holds while the delay is
        pending; an :class:`Interrupt` clears it, so the wake of a delay
        interrupted midway is stale even if the process has since
        started another delay."""
        if self._waiting_on is not token:
            return  # stale: the delay was interrupted
        self._waiting_on = None
        self._resume(self.sim._init_sentinel)

    def _resume(self, trigger: Event) -> None:
        if self._triggered:
            return  # interrupted-then-completed race: stale wakeup
        if self._waiting_on is not None and trigger is not self._waiting_on:
            if not isinstance(trigger, _InterruptResume):
                return  # stale wakeup from an abandoned AnyOf branch
        self._waiting_on = None
        throw: Optional[BaseException] = None
        value: Any = None
        if type(trigger) is _InterruptResume:
            throw = trigger.interrupt
        elif trigger._exc is not None:
            trigger._defused = True
            throw = trigger._exc
        elif type(trigger) is not _InitialResume:
            value = trigger._value
        gen = self._gen
        send = gen.send
        sim = self.sim
        while True:
            try:
                if throw is not None:
                    target = gen.throw(throw)
                else:
                    target = send(value)
            except StopIteration as stop:
                sim._live_processes -= 1
                self.succeed(stop.value)
                return
            except BaseException as exc:
                sim._live_processes -= 1
                self.fail(exc)
                # if nobody joins this process its crash must not be
                # silent; give waiters one event-queue round to observe
                # (defuse) it.
                sim._post(self._report_if_undefused, exc)
                return
            if type(target) is not float:
                if isinstance(target, Event):
                    if target._triggered:
                        # fast path: consume an already-triggered
                        # waitable inline.  Equivalent to dispatching the
                        # zero-delay resume entry add_callback() would
                        # have queued as the immediately-next entry -- a
                        # same-timestamp ordering choice panda-mc
                        # vets and the golden tests pin.
                        target._defused = True
                        exc2 = target._exc
                        if exc2 is not None:
                            throw = exc2
                        else:
                            throw = None
                            value = target._value
                        continue
                    self._waiting_on = target
                    target.add_callback(self._resume)
                    return
                if hasattr(target, "send"):
                    # yielding a bare generator spawns-and-joins it; the
                    # fresh process is never already triggered
                    child = Process(sim, target)
                    self._waiting_on = child
                    child.add_callback(self._resume)
                    return
                if not isinstance(target, float):
                    # bad yield: throw the error back into the generator
                    # so the process (or its joiner) sees it
                    throw = TypeError(
                        f"process {self.name!r} yielded {target!r}; expected "
                        "an Event, Timeout, Process, AllOf/AnyOf, a "
                        "generator, or a float delay"
                    )
                    continue
                target = float(target)  # a subclass (numpy.float64)
            # a charge: one heap entry at now + d, pushed the moment the
            # generator yields (so at the seq a Timeout created there
            # would take); the entry's seq is the wake token
            if target > 0.0:
                token = sim._seq
                self._waiting_on = token
                sim._push(target, self._wake, token)
                return
            throw = None
            value = None
            if target != 0.0:  # negative or NaN
                throw = ValueError(
                    f"process {self.name!r} yielded delay {target!r}; "
                    "a delay must be >= 0"
                )

    def _report_if_undefused(self, exc: BaseException) -> None:
        if not self._defused:
            self.sim._unhandled.append((self, exc))


class _InitialResume(Event):
    """Sentinel trigger used for the very first resume of a process and
    for the wake of a yielded delay: both resume it with ``None``.  One
    pre-triggered instance per simulator -- ``_resume`` only ever
    type-checks it."""

    __slots__ = ()

    def __init__(self, sim: "Simulator") -> None:
        super().__init__(sim, name="init")
        self._triggered = True


class _InterruptResume(Event):
    """Sentinel trigger carrying an :class:`Interrupt`."""

    __slots__ = ("interrupt",)

    def __init__(self, sim: "Simulator", interrupt: Interrupt) -> None:
        super().__init__(sim, name="interrupt")
        self._triggered = True
        self.interrupt = interrupt


class Simulator:
    """The event loop: a virtual clock plus a deterministic event heap."""

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: List[Entry] = []
        #: zero-delay entries, same [time, seq, callback, arg] layout as
        #: the heap.  Entries always carry the current time and globally
        #: increasing seq numbers, so FIFO order *is* heap order for them.
        self._ready: deque[Entry] = deque()
        #: entry slab: dispatched entries with nulled payload slots,
        #: reused by _post/_push instead of allocating
        self._free: List[Entry] = []
        self._seq = 0
        #: entries that took the heap (seq - pushes = fast-path count);
        #: counter deltas are flushed to COUNTERS in batch at run/step
        #: exit rather than paying two global increments per event
        self._heap_pushes = 0
        self._ctr_seq = 0
        self._ctr_pushes = 0
        self._live_processes = 0
        self._unhandled: list[tuple[Process, BaseException]] = []
        #: the dispatch controller (see :meth:`enable_controller`): when
        #: set, it picks which same-instant entry dispatches next and
        #: observes each dispatch, and Store/Resource operations call
        #: ``_control.note(obj)`` with the shared objects they touch.
        self._control: Optional[Any] = None
        self._init_sentinel = _InitialResume(self)

    # -- controlled dispatch ---------------------------------------------
    def enable_controller(self, controller: Any) -> None:
        """Hand same-instant dispatch decisions to ``controller``:
        panda-mc's exhaustive search or seeded walk
        (:mod:`repro.analysis.mc`).

        At every dispatch state the controller's ``choose(t, frontier)``
        is shown the full frontier of minimal-timestamp entries as
        ``(seq, label)`` pairs and returns the index to dispatch.
        Candidates are only ever already-queued entries, so causal and
        time order hold whatever it picks.  Around the dispatched
        callback it receives ``begin(t, seq, label)`` and
        ``end(pre_seq, post_seq)`` -- the seq range of entries the
        callback created, i.e. the causal parent edges -- and
        Store/Resource primitives report the shared objects they touch
        through ``controller.note(obj)``.  One controller per
        simulator, installed before events are queued."""
        if self._control is not None:
            raise SimulationError("a dispatch controller is already installed")
        self._control = controller

    def mc_note(self, key: Any) -> None:
        """Declare that the currently-dispatching event touches the
        shared state named by hashable ``key``.  Store/Resource
        operations are noted automatically; application callbacks that
        share state *outside* those primitives (a plain dict, a list)
        must call this for the model checker to see the conflict --
        see DESIGN.md section 16 for the soundness boundary.  No-op
        outside controlled runs, so it is free on the fast path."""
        ctl = self._control
        if ctl is not None:
            ctl.note(key)

    @staticmethod
    def _entry_label(entry: Entry) -> str:
        """A stable, content-based label for a queued entry's callback
        (the multi-arg trampoline unwrapped): the qualified name plus
        the owning object's ``name`` when it has one (processes, named
        events).  Sequence numbers are *not* included -- they are
        exactly what a controller permutes."""
        cb = entry[2]
        if cb is _apply:
            cb = entry[3][0]
        owner = getattr(cb, "__self__", None)
        qualname = getattr(cb, "__qualname__", None) or repr(cb)
        name = getattr(owner, "name", "")
        return f"{qualname}[{name}]" if name else qualname

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def dispatched(self) -> int:
        """Entries dispatched so far: every scheduled entry is either
        dispatched or still queued."""
        return self._seq - len(self._heap) - len(self._ready)

    # -- scheduling ------------------------------------------------------
    def _post(self, callback: Callable[[Any], None], arg: Any) -> None:
        """Queue ``callback(arg)`` at the current instant (the zero-delay
        fast path), recycling a slab entry when one is free."""
        free = self._free
        seq = self._seq
        if free:
            e = free.pop()
            e[0] = self._now
            e[1] = seq
            e[2] = callback
            e[3] = arg
        else:
            e = [self._now, seq, callback, arg]
        self._seq = seq + 1
        self._ready.append(e)

    def _push(self, delay: float, callback: Callable[[Any], None], arg: Any) -> None:
        """Queue ``callback(arg)`` after a positive ``delay`` (heap path)."""
        free = self._free
        seq = self._seq
        t = self._now + delay
        if free:
            e = free.pop()
            e[0] = t
            e[1] = seq
            e[2] = callback
            e[3] = arg
        else:
            e = [t, seq, callback, arg]
        self._seq = seq + 1
        self._heap_pushes += 1
        heapq.heappush(self._heap, e)

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> None:
        """Run ``callback(*args)`` after ``delay`` simulated seconds."""
        if not delay >= 0:  # NaN fails this too
            raise ValueError(f"delay must be >= 0, got {delay!r}")
        if len(args) != 1:
            # entries carry one argument slot; pack other arities
            args = ((callback, args),)
            callback = _apply
        if delay == 0.0:
            self._post(callback, args[0])
        else:
            self._push(delay, callback, args[0])

    def _push_at(self, t: float, callback: Callable[[Any], None], arg: Any) -> None:
        """Queue ``callback(arg)`` at absolute time ``t > now`` (heap path)."""
        free = self._free
        seq = self._seq
        if free:
            e = free.pop()
            e[0] = t
            e[1] = seq
            e[2] = callback
            e[3] = arg
        else:
            e = [t, seq, callback, arg]
        self._seq = seq + 1
        self._heap_pushes += 1
        heapq.heappush(self._heap, e)

    def schedule_at(self, t: float, callback: Callable[..., None], *args: Any) -> None:
        """Run ``callback(*args)`` at *absolute* simulated time ``t``.

        ``schedule(t - now, ...)`` would dispatch at ``fl(now + fl(t -
        now))``, which can miss ``t`` by an ulp -- float addition does
        not round-trip.  The entry here carries ``t`` itself, so a
        caller holding an exact recorded timestamp (the trace replayer,
        :mod:`repro.replay`) lands on it bit-exactly."""
        if not t >= self._now:  # NaN fails this too
            raise ValueError(
                f"schedule_at time {t!r} is not >= now {self._now!r}"
            )
        if len(args) != 1:
            args = ((callback, args),)
            callback = _apply
        if t == self._now:
            self._post(callback, args[0])
        else:
            self._push_at(t, callback, args[0])

    def wake_at(self, t: float, value: Any = None) -> "Event":
        """An event that triggers at exactly absolute time ``t >= now``
        (see :meth:`schedule_at` for why this is not ``timeout(t -
        now)``)."""
        ev = Event(self, "wake_at")
        self.schedule_at(t, ev.succeed, value)
        return ev

    def _flush_counters(self) -> None:
        """Fold the per-run scheduling deltas into the global counters.
        Called when a dispatch loop exits; keeps ``COUNTERS`` exact
        without per-event increments on the hot path."""
        scheduled = self._seq - self._ctr_seq
        if scheduled:
            pushes = self._heap_pushes - self._ctr_pushes
            COUNTERS.events_scheduled += scheduled
            COUNTERS.events_fastpath += scheduled - pushes
            self._ctr_seq = self._seq
            self._ctr_pushes = self._heap_pushes

    # -- factory helpers ---------------------------------------------------
    def event(self, name: str = "") -> Event:
        return Event(self, name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def spawn(self, gen: ProcessGenerator, name: str = "") -> Process:
        """Start a new process from ``gen``; it first runs at the current
        simulation time, after already-queued events."""
        return Process(self, gen, name)

    # -- execution ---------------------------------------------------------
    def _raise_unhandled(self) -> None:
        """The post-dispatch check every drain shares: a process that
        raised with no joiner aborts the run."""
        proc, exc = self._unhandled.pop(0)
        raise SimulationError(
            f"unhandled failure in process {proc.name!r}"
        ) from exc

    def step(self) -> bool:
        """Execute the next queued event.  Returns False when the queue
        is empty.  Raises an unhandled process failure exactly as
        :meth:`run` does."""
        ready = self._ready
        if ready:
            heap = self._heap
            if heap and heap[0] < ready[0]:
                e = heapq.heappop(heap)
            else:
                e = ready.popleft()
        elif self._heap:
            e = heapq.heappop(self._heap)
        else:
            return False
        t = e[0]
        if t < self._now - 1e-15:
            raise SimulationError("time went backwards")
        if t > self._now:
            self._now = t
        callback = e[2]
        arg = e[3]
        e[2] = e[3] = None
        self._free.append(e)
        callback(arg)
        self._flush_counters()
        if self._unhandled:
            self._raise_unhandled()
        return True

    def run(self, until: Optional[float] = None) -> float:
        """Run until the event queue drains (or simulated time passes
        ``until``).  Raises the first unhandled process exception, and
        -- when unbounded -- raises :class:`SimulationError` on deadlock
        (live processes but no queued events).  Returns the final
        simulation time."""
        if self._control is not None:
            return self._run_instrumented(until)
        # The batched drain: everything loop-invariant lives in locals,
        # entries cycle through the slab, and each iteration is one
        # merged (time, seq) pop -- identical dispatch order to step().
        # An unbounded run stops at infinity: one float compare per
        # event.
        limit = float("inf") if until is None else until
        ready, heap = self._ready, self._heap
        unhandled = self._unhandled
        pop = heapq.heappop
        popleft = ready.popleft
        free_append = self._free.append
        now = self._now
        try:
            while True:
                if ready:
                    if heap and heap[0] < ready[0]:
                        e = pop(heap)
                    else:
                        e = popleft()
                elif heap:
                    e = pop(heap)
                else:
                    break
                t = e[0]
                if t > limit:
                    # not due yet: put it back (the heap orders by the
                    # same (time, seq) key wherever the entry came
                    # from) and stop the clock at the limit
                    heapq.heappush(heap, e)
                    self._now = now = limit
                    break
                if t > now:
                    self._now = now = t
                elif t < now - 1e-15:
                    raise SimulationError("time went backwards")
                cb = e[2]
                arg = e[3]
                e[2] = e[3] = None
                free_append(e)
                cb(arg)
                if unhandled:
                    self._raise_unhandled()
        finally:
            self._flush_counters()
        if until is None and self._live_processes > 0:
            raise SimulationError(
                f"deadlock: {self._live_processes} live process(es) but no "
                "pending events"
            )
        return now

    def _run_instrumented(self, until: Optional[float] = None) -> float:
        """The slow twin of :meth:`run`, under a controller
        (:meth:`enable_controller`).  The controller picks the dispatch
        at *every* state -- including single-candidate frontiers, which
        it may veto as redundant by raising -- and observes each step's
        causal children via the seq range created during the callback.
        A controller that always picks the lowest seq dispatches in
        exactly the fast loop's global (time, seq) order."""
        ready, heap = self._ready, self._heap
        ctl = self._control
        try:
            while heap or ready:
                # all queued entries carrying the minimal timestamp: the
                # ready deque is time-sorted (appends stamp the current,
                # monotone clock), so its candidates form a prefix
                if ready:
                    t0 = min(ready[0][0], heap[0][0]) if heap else ready[0][0]
                else:
                    t0 = heap[0][0]
                if until is not None and t0 > until:
                    self._now = until
                    break
                candidates: List[Entry] = []
                while ready and ready[0][0] == t0:
                    candidates.append(ready.popleft())
                while heap and heap[0][0] == t0:
                    candidates.append(heapq.heappop(heap))
                frontier = [(e[1], self._entry_label(e)) for e in candidates]
                entry = candidates.pop(ctl.choose(t0, frontier))
                for other in candidates:
                    heapq.heappush(heap, other)
                t = entry[0]
                if t > self._now:
                    self._now = t
                elif t < self._now - 1e-15:
                    raise SimulationError("time went backwards")
                ctl.begin(t, entry[1], self._entry_label(entry))
                pre_seq = self._seq
                entry[2](entry[3])
                ctl.end(pre_seq, self._seq)
                if self._unhandled:
                    self._raise_unhandled()
        finally:
            self._flush_counters()
        if until is None and self._live_processes > 0:
            raise SimulationError(
                f"deadlock: {self._live_processes} live process(es) but no "
                "pending events"
            )
        return self._now

    def run_process(self, gen: ProcessGenerator, name: str = "") -> Any:
        """Spawn ``gen``, run to completion, and return its value."""
        proc = self.spawn(gen, name)
        self.run()
        return proc.value
