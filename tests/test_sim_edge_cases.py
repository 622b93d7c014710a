"""Edge-case tests for the engine: stale wakeups, AnyOf losers,
interrupts under resource contention, run(until), step()."""

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Interrupt,
    Resource,
    SimulationError,
    Simulator,
    Store,
)


def test_anyof_loser_firing_later_is_ignored():
    sim = Simulator()

    def proc(sim):
        fast = sim.timeout(1.0, "fast")
        slow = sim.timeout(5.0, "slow")
        winner = yield AnyOf(sim, [fast, slow])
        # keep living past the loser's firing
        yield sim.timeout(10.0)
        return winner

    p = sim.spawn(proc(sim))
    sim.run()
    assert p.value == (0, "fast")
    assert sim.now == 11.0


def test_anyof_failing_loser_does_not_abort():
    sim = Simulator()
    doomed = sim.event()

    def proc(sim):
        fast = sim.timeout(1.0, "ok")
        winner = yield AnyOf(sim, [fast, doomed])
        return winner

    def failer(sim):
        yield sim.timeout(2.0)
        doomed.fail(RuntimeError("late failure"))

    p = sim.spawn(proc(sim))
    sim.spawn(failer(sim))
    sim.run()  # must not raise: the AnyOf consumed (defused) the loser
    assert p.value == (0, "ok")


def test_allof_fails_fast_on_first_child_failure():
    sim = Simulator()
    bad = sim.event()

    def proc(sim):
        try:
            yield AllOf(sim, [sim.timeout(10.0), bad])
        except ValueError as exc:
            return (str(exc), sim.now)

    def failer(sim):
        yield sim.timeout(1.0)
        bad.fail(ValueError("child died"))

    p = sim.spawn(proc(sim))
    sim.spawn(failer(sim))
    sim.run()
    assert p.value == ("child died", 1.0)


def test_interrupt_while_holding_resource_releases_in_finally():
    sim = Simulator()
    res = Resource(sim, 1)

    def holder(sim):
        yield res.acquire()
        try:
            yield sim.timeout(100.0)
        except Interrupt:
            pass
        finally:
            res.release()
        return "released"

    def interrupter(sim, target):
        yield sim.timeout(1.0)
        target.interrupt()

    def waiter(sim):
        yield res.acquire()
        res.release()
        return sim.now

    h = sim.spawn(holder(sim))
    sim.spawn(interrupter(sim, h))
    w = sim.spawn(waiter(sim))
    sim.run()
    assert h.value == "released"
    assert w.value == 1.0


def test_interrupt_then_rewait_same_event():
    sim = Simulator()
    ev = sim.event()

    def proc(sim):
        try:
            yield ev
        except Interrupt:
            pass
        value = yield ev  # wait for the same event again
        return value

    def driver(sim, target):
        yield sim.timeout(1.0)
        target.interrupt()
        yield sim.timeout(1.0)
        ev.succeed("finally")

    p = sim.spawn(proc(sim))
    sim.spawn(driver(sim, p))
    sim.run()
    assert p.value == "finally"


def test_run_until_exact_event_time_executes_event():
    sim = Simulator()
    fired = []

    def proc(sim):
        yield sim.timeout(5.0)
        fired.append(sim.now)

    sim.spawn(proc(sim))
    sim.run(until=5.0)
    assert fired == [5.0]


def test_step_returns_false_on_empty_queue():
    sim = Simulator()
    assert sim.step() is False


def test_step_raises_unhandled_process_failure_like_run():
    """A process that raises with no joiner aborts the simulation
    however it is drained: ``step()`` must not leave the failure parked
    in the engine and return as if the run were clean."""
    def boom(sim):
        yield sim.timeout(1.0)
        raise ValueError("nobody joins me")

    ran = Simulator()
    ran.spawn(boom(ran), name="boom")
    with pytest.raises(SimulationError, match="unhandled failure.*boom") as by_run:
        ran.run()

    stepped = Simulator()
    stepped.spawn(boom(stepped), name="boom")
    with pytest.raises(SimulationError, match="unhandled failure.*boom") as by_step:
        while stepped.step():
            pass
    assert isinstance(by_run.value.__cause__, ValueError)
    assert isinstance(by_step.value.__cause__, ValueError)
    assert stepped.now == ran.now == 1.0


def test_immediate_process_completion():
    sim = Simulator()

    def instant(sim):
        return "done"
        yield  # pragma: no cover

    assert sim.run_process(instant(sim)) == "done"
    assert sim.now == 0.0


def test_spawn_requires_generator():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.spawn(lambda: None)


def test_event_value_before_trigger_raises():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.event().value


def test_nested_exception_propagates_through_yield_from_layers():
    sim = Simulator()

    def level2(sim):
        yield sim.timeout(1.0)
        raise KeyError("deep")

    def level1(sim):
        yield from level2(sim)

    def top(sim):
        try:
            yield from level1(sim)
        except KeyError as exc:
            return f"caught {exc}"

    assert sim.run_process(top(sim)) == "caught 'deep'"


def test_resource_fifo_preserved_across_interleaved_releases():
    sim = Simulator()
    res = Resource(sim, 2)
    order = []

    def worker(sim, label, hold):
        yield res.acquire()
        yield sim.timeout(hold)
        order.append(label)
        res.release()

    for i, hold in enumerate([3.0, 1.0, 1.0, 1.0]):
        sim.spawn(worker(sim, i, hold))
    sim.run()
    # workers 0,1 start; 1 finishes at 1 -> 2 starts, finishes at 2 ->
    # 3 starts, finishes at 3 alongside 0
    assert order == [1, 2, 0, 3] or order == [1, 2, 3, 0]


def test_store_many_items_fifo_under_predicates():
    sim = Simulator()
    st = Store(sim)
    for i in range(10):
        st.put(i)

    def consumer(sim):
        evens = []
        for _ in range(5):
            item = yield st.get(lambda x: x % 2 == 0)
            evens.append(item)
        return evens

    assert sim.run_process(consumer(sim)) == [0, 2, 4, 6, 8]
    assert list(st._items) == [1, 3, 5, 7, 9]


def test_zero_capacity_run_of_processes_scales():
    """A few thousand processes through one resource stays correct --
    the heap and FIFO don't degrade."""
    sim = Simulator()
    res = Resource(sim, 1)
    n = 2000
    done = []

    def worker(sim, i):
        yield from res.serve(0.001)
        done.append(i)

    for i in range(n):
        sim.spawn(worker(sim, i))
    sim.run()
    assert done == list(range(n))
    assert sim.now == pytest.approx(n * 0.001)


def test_anyof_withdraws_loser_callbacks():
    """Once an AnyOf resolves, the losing branches' callbacks are
    removed from their events (regression: they used to linger on
    never-firing events forever)."""
    sim = Simulator()
    never = sim.event()

    def proc(sim):
        winner = yield AnyOf(sim, [sim.timeout(1.0, "fast"), never])
        return winner

    p = sim.spawn(proc(sim))
    sim.run()
    assert p.value == (0, "fast")
    assert never.callbacks == []


def test_anyof_against_longlived_event_does_not_accumulate():
    """Repeatedly racing timeouts against one long-lived event leaves
    no dead closures behind on it."""
    sim = Simulator()
    never = sim.event()

    def proc(sim):
        for _ in range(100):
            yield AnyOf(sim, [sim.timeout(1.0), never])

    sim.spawn(proc(sim))
    sim.run()
    assert never.callbacks == []
    assert sim.now == 100.0


def test_allof_withdraws_pending_children_on_failure():
    sim = Simulator()
    bad = sim.event()
    pending = sim.event()

    def proc(sim):
        try:
            yield AllOf(sim, [pending, bad])
        except ValueError:
            return sim.now

    def failer(sim):
        yield sim.timeout(1.0)
        bad.fail(ValueError("boom"))

    p = sim.spawn(proc(sim))
    sim.spawn(failer(sim))
    sim.run()
    assert p.value == 1.0
    assert pending.callbacks == []
