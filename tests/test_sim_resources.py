"""Unit tests for Resource and Store."""

import pytest

from repro.sim import Resource, Simulator, Store


def make_worker(sim, res, log, label, hold):
    def worker(sim=sim):
        yield res.acquire()
        try:
            yield sim.timeout(hold)
            log.append((label, sim.now))
        finally:
            res.release()

    return worker()


def test_capacity_one_serialises_fifo():
    sim = Simulator()
    res = Resource(sim, 1)
    log = []
    for i in range(4):
        sim.spawn(make_worker(sim, res, log, i, 1.0))
    sim.run()
    assert log == [(0, 1.0), (1, 2.0), (2, 3.0), (3, 4.0)]


def test_capacity_two_overlaps():
    sim = Simulator()
    res = Resource(sim, 2)
    log = []
    for i in range(4):
        sim.spawn(make_worker(sim, res, log, i, 1.0))
    sim.run()
    assert log == [(0, 1.0), (1, 1.0), (2, 2.0), (3, 2.0)]


def test_release_of_idle_resource_raises():
    sim = Simulator()
    res = Resource(sim, 1)
    with pytest.raises(RuntimeError):
        res.release()


def test_invalid_capacity():
    sim = Simulator()
    with pytest.raises(ValueError):
        Resource(sim, 0)


def test_serve_helper():
    sim = Simulator()
    res = Resource(sim, 1)

    def proc(sim):
        yield from res.serve(2.0)
        return sim.now

    assert sim.run_process(proc(sim)) == 2.0
    assert res.in_use == 0


def test_busy_time_accounting():
    sim = Simulator()
    res = Resource(sim, 1)

    def proc(sim):
        yield from res.serve(3.0)

    sim.spawn(proc(sim))
    sim.spawn(proc(sim))
    sim.run()
    assert res.occupancy() == (0, 6.0, 6.0, 1)


def test_store_occupancy_accounting():
    """Store keeps Resource's bookkeeping: the depth-seconds integral
    up to the last change (its time-weighted mean), the current depth
    and the peak -- including a same-instant hold that adds no area."""
    sim = Simulator()
    box = Store(sim)

    def proc(sim):
        yield sim.timeout(1.0)
        box.put("a")  # depth 1 over [1, 3)
        yield sim.timeout(2.0)
        yield box.get()
        box.put("b")
        box.put("c")  # depth 2 for zero seconds
        yield box.get()
        assert box.try_get() == "c"
        yield sim.timeout(1.0)
        box.clear()  # a change at t=4 that leaves the depth at 0

    sim.run_process(proc(sim))
    depth, area, t_last, peak = box.occupancy()
    assert area / t_last == pytest.approx(0.5)  # 1 deep for 2 of 4 s
    assert depth == 0
    assert peak == 2


def test_store_fifo_without_predicate():
    sim = Simulator()
    st = Store(sim)
    st.put("a")
    st.put("b")

    def proc(sim):
        first = yield st.get()
        second = yield st.get()
        return (first, second)

    assert sim.run_process(proc(sim)) == ("a", "b")


def test_store_predicate_takes_oldest_match():
    sim = Simulator()
    st = Store(sim)
    st.put(("x", 1))
    st.put(("y", 2))
    st.put(("x", 3))

    def proc(sim):
        item = yield st.get(lambda m: m[0] == "x")
        item2 = yield st.get(lambda m: m[0] == "x")
        return (item, item2)

    assert sim.run_process(proc(sim)) == (("x", 1), ("x", 3))
    assert list(st._items) == [("y", 2)]


def test_store_get_blocks_until_put():
    sim = Simulator()
    st = Store(sim)

    def consumer(sim):
        item = yield st.get()
        return (item, sim.now)

    def producer(sim):
        yield sim.timeout(2.0)
        st.put("late")

    p = sim.spawn(consumer(sim))
    sim.spawn(producer(sim))
    sim.run()
    assert p.value == ("late", 2.0)


def test_store_multiple_getters_fifo():
    sim = Simulator()
    st = Store(sim)
    results = []

    def consumer(sim, label):
        item = yield st.get()
        results.append((label, item))

    sim.spawn(consumer(sim, "first"))
    sim.spawn(consumer(sim, "second"))

    def producer(sim):
        yield sim.timeout(1.0)
        st.put("a")
        st.put("b")

    sim.spawn(producer(sim))
    sim.run()
    assert results == [("first", "a"), ("second", "b")]


def test_store_predicate_getter_skipped_when_no_match():
    sim = Simulator()
    st = Store(sim)
    results = []

    def picky(sim):
        item = yield st.get(lambda m: m == "special")
        results.append(("picky", item))

    def anyone(sim):
        item = yield st.get()
        results.append(("any", item))

    sim.spawn(picky(sim))
    sim.spawn(anyone(sim))
    st.put("plain")
    st.put("special")
    sim.run()
    assert ("picky", "special") in results
    assert ("any", "plain") in results


def test_store_len():
    sim = Simulator()
    st = Store(sim)
    assert len(st) == 0
    st.put(1)
    assert len(st) == 1


def test_store_clear_drops_queued_items():
    sim = Simulator()
    st = Store(sim)
    st.put("stale-1")
    st.put("stale-2")
    assert st.clear() == 2
    assert len(st) == 0 and list(st._items) == []
    assert st.clear() == 0  # idempotent on an empty store


def test_store_clear_drops_stale_getters():
    """Reboot semantics (see PandaRuntime): clearing a dead node's
    mailbox also forgets any pending getter, so it cannot steal
    deliveries meant for the reborn process."""
    sim = Simulator()
    st = Store(sim)
    stale = st.get()  # a dead process's receive, never to resume
    assert st.clear() == 0  # no items, but the stale getter is dropped
    st.put("fresh")
    assert not stale.triggered  # the dropped getter took nothing

    def reborn(sim):
        item = yield st.get()
        return item

    assert sim.run_process(reborn(sim)) == "fresh"
