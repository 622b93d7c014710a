"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Interrupt,
    SimulationError,
    Simulator,
)


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(2.5)
        return sim.now

    assert sim.run_process(proc(sim)) == 2.5
    assert sim.now == 2.5


def test_timeout_zero_is_allowed():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(0.0)
        return "done"

    assert sim.run_process(proc(sim)) == "done"


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_process_return_value_via_join():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(1.0)
        return 7

    def parent(sim):
        value = yield sim.spawn(child(sim))
        return value * 6

    assert sim.run_process(parent(sim)) == 42


def test_yielding_bare_generator_spawns_and_joins():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(3.0)
        return "inner"

    def parent(sim):
        value = yield child(sim)
        return (value, sim.now)

    assert sim.run_process(parent(sim)) == ("inner", 3.0)


def test_event_succeed_wakes_waiter_with_value():
    sim = Simulator()
    ev = sim.event()

    def waiter(sim):
        value = yield ev
        return value

    def signaller(sim):
        yield sim.timeout(5.0)
        ev.succeed("hello")

    p = sim.spawn(waiter(sim))
    sim.spawn(signaller(sim))
    sim.run()
    assert p.value == "hello"
    assert sim.now == 5.0


def test_waiting_on_already_triggered_event():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(99)

    def waiter(sim):
        value = yield ev
        return value

    assert sim.run_process(waiter(sim)) == 99


def test_event_double_trigger_raises():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_fail_propagates_into_waiter():
    sim = Simulator()
    ev = sim.event()

    def waiter(sim):
        try:
            yield ev
        except RuntimeError as exc:
            return f"caught:{exc}"

    def failer(sim):
        yield sim.timeout(1.0)
        ev.fail(RuntimeError("bad"))

    p = sim.spawn(waiter(sim))
    sim.spawn(failer(sim))
    sim.run()
    assert p.value == "caught:bad"


def test_fail_requires_exception_instance():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.event().fail("not an exception")


def test_all_of_collects_values_in_order():
    sim = Simulator()

    def proc(sim):
        t1 = sim.timeout(3.0, "slow")
        t2 = sim.timeout(1.0, "fast")
        values = yield AllOf(sim, [t1, t2])
        return (values, sim.now)

    assert sim.run_process(proc(sim)) == (["slow", "fast"], 3.0)


def test_all_of_empty_fires_immediately():
    sim = Simulator()

    def proc(sim):
        values = yield AllOf(sim, [])
        return values

    assert sim.run_process(proc(sim)) == []


def test_any_of_returns_first_index_and_value():
    sim = Simulator()

    def proc(sim):
        t1 = sim.timeout(3.0, "slow")
        t2 = sim.timeout(1.0, "fast")
        result = yield AnyOf(sim, [t1, t2])
        return (result, sim.now)

    assert sim.run_process(proc(sim)) == ((1, "fast"), 1.0)


def test_any_of_requires_events():
    sim = Simulator()
    with pytest.raises(ValueError):
        AnyOf(sim, [])


def test_unjoined_process_failure_aborts_run():
    sim = Simulator()

    def bad(sim):
        yield sim.timeout(1.0)
        raise ValueError("boom")

    sim.spawn(bad(sim))
    with pytest.raises(SimulationError, match="unhandled failure"):
        sim.run()


def test_joined_process_failure_is_catchable():
    sim = Simulator()

    def bad(sim):
        yield sim.timeout(1.0)
        raise ValueError("boom")

    def parent(sim):
        try:
            yield sim.spawn(bad(sim))
        except ValueError:
            return "handled"

    assert sim.run_process(parent(sim)) == "handled"


def test_deadlock_detection():
    sim = Simulator()

    def stuck(sim):
        yield sim.event()

    sim.spawn(stuck(sim))
    with pytest.raises(SimulationError, match="deadlock"):
        sim.run()


def test_run_until_stops_clock():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(10.0)

    sim.spawn(proc(sim))
    sim.run(until=4.0)
    assert sim.now == 4.0
    sim.run()  # finish
    assert sim.now == 10.0


def test_interrupt_raises_inside_process():
    sim = Simulator()

    def sleeper(sim):
        try:
            yield sim.timeout(100.0)
            return "slept"
        except Interrupt as intr:
            return ("interrupted", intr.cause, sim.now)

    def interrupter(sim, target):
        yield sim.timeout(2.0)
        target.interrupt("wake up")

    p = sim.spawn(sleeper(sim))
    sim.spawn(interrupter(sim, p))
    sim.run()
    assert p.value == ("interrupted", "wake up", 2.0)


def test_interrupt_finished_process_is_noop():
    sim = Simulator()

    def quick(sim):
        yield sim.timeout(1.0)
        return "done"

    p = sim.spawn(quick(sim))
    sim.run()
    p.interrupt("late")
    sim.run()
    assert p.value == "done"


def test_same_time_events_run_in_fifo_order():
    sim = Simulator()
    order = []

    def proc(sim, label):
        yield sim.timeout(1.0)
        order.append(label)

    for i in range(5):
        sim.spawn(proc(sim, i))
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_process_is_alive_until_completion():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1.0)

    p = sim.spawn(proc(sim))
    assert p.is_alive
    sim.run()
    assert not p.is_alive


def test_yielding_non_event_raises_typeerror():
    sim = Simulator()

    def bad(sim):
        yield 42

    def parent(sim):
        try:
            yield sim.spawn(bad(sim))
        except TypeError as exc:
            return "typed" in str(exc) or "expected an Event" in str(exc)

    assert sim.run_process(parent(sim)) is True


def test_schedule_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule(-0.1, lambda: None)


def test_nested_process_chain_returns_through_layers():
    sim = Simulator()

    def level3(sim):
        yield sim.timeout(1.0)
        return 3

    def level2(sim):
        v = yield level3(sim)
        return v + 2

    def level1(sim):
        v = yield level2(sim)
        return v + 1

    assert sim.run_process(level1(sim)) == 6


# --- batched dispatch: slab recycling and callback withdrawal -----------------


def test_slab_entries_do_not_leak_args():
    """Recycled queue entries must drop their callback/arg references at
    dispatch: a stale arg would alias into the next event scheduled from
    the slab (and pin arbitrarily large payloads in memory)."""
    sim = Simulator()
    seen = []
    payloads = [object() for _ in range(8)]
    for i, payload in enumerate(payloads):
        sim.schedule(0.25 * i, seen.append, payload)
    sim.run()
    assert seen == payloads
    # every freed slab entry is scrubbed
    assert sim._free
    assert all(e[2] is None and e[3] is None for e in sim._free)
    # entries recycled from the slab deliver exactly their own arg
    seen.clear()
    sim.schedule(1.0, seen.append, "fresh")
    sim.run()
    assert seen == ["fresh"]


def test_discard_mid_list_callback():
    """Withdrawing a middle callback (the AnyOf loser pattern) must not
    shift later tokens, and the remaining callbacks still fire in
    registration order."""
    sim = Simulator()
    ev = sim.event()
    fired = []
    cb_a = lambda e: fired.append("a")
    cb_b = lambda e: fired.append("b")
    cb_c = lambda e: fired.append("c")
    ta = ev.add_callback(cb_a)
    tb = ev.add_callback(cb_b)
    tc = ev.add_callback(cb_c)
    assert (ta, tb, tc) == (0, 1, 2)
    ev.discard_token(tb)  # mid-list: tombstoned, not shifted
    assert len(ev.callbacks) == 3 and ev.callbacks[1] is None
    ev.discard_token(tc)  # last: popped, sweeping the tombstone's tail
    assert ev.callbacks == [cb_a]
    ev.succeed("v")
    sim.run()
    assert fired == ["a"]


# --- batched dispatch: order equivalence across run modes ---------------------


def test_dispatch_order_identical_across_run_modes():
    from hypothesis import given, settings, strategies as st

    from repro.analysis.hb import ScheduleController

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from([0.0, 0.25, 0.5, 1.0]),
                              st.integers(0, 3)),
                    min_size=1, max_size=25))
    def check(plan):
        def execute(mode):
            sim = Simulator()
            order = []

            def make_cb(ident, children):
                def cb(arg):
                    order.append((sim.now, ident))
                    # dispatch-time scheduling exercises the merged
                    # ready/heap drain: one zero-delay and one delayed
                    # child per flag bit
                    if children & 1:
                        sim.schedule(0.0, make_cb((ident, 0), 0), None)
                    if children & 2:
                        sim.schedule(0.5, make_cb((ident, 1), 0), None)
                return cb

            for i, (delay, children) in enumerate(plan):
                sim.schedule(delay, make_cb(i, children), None)
            if mode == "run":
                sim.run()
            elif mode == "step":
                while sim.step():
                    pass
            else:  # controlled: run() routes through _run_instrumented
                sim.enable_controller(ScheduleController())
                sim.run()
            return order

        runs = [execute(m) for m in ("run", "step", "instrumented")]
        assert runs[0] == runs[1] == runs[2]

    check()


def test_yielded_delay_dispatches_like_timeout_across_run_modes():
    """``yield d`` is ``yield sim.timeout(d)`` minus the event object:
    the same random programs, charging either way (a charge site never
    yielded a zero timeout, it skipped the yield), dispatch the same
    ``(time, seq)`` log under ``run``, ``step`` and the instrumented
    drain.  Draws include zero delays, exact ties and interrupts that
    land mid-delay, so stale wakes are exercised."""
    from hypothesis import given, settings, strategies as st

    from repro.analysis.hb import ScheduleController

    delays = st.sampled_from([0.0, 0.25, 0.5, 1.0])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(delays, min_size=1, max_size=5),
                    min_size=1, max_size=4),
           st.lists(st.tuples(delays, st.integers(0, 3)), max_size=3))
    def check(programs, interrupts):
        def execute(form, mode):
            sim = Simulator()
            app = []

            def charge(d):
                if form == "delay":
                    yield d
                elif d > 0:
                    yield sim.timeout(d)

            def body(pid, program):
                for i, d in enumerate(program):
                    try:
                        yield from charge(d)
                        app.append((sim.now, pid, i))
                    except Interrupt:
                        app.append((sim.now, pid, i, "interrupted"))

            def interrupter(at, target):
                yield from charge(at)
                target.interrupt()

            procs = [sim.spawn(body(pid, prog))
                     for pid, prog in enumerate(programs)]
            for at, target in interrupts:
                sim.spawn(interrupter(at, procs[target % len(procs)]))
            dispatch = []
            if mode == "run":
                sim.run()
            elif mode == "step":
                while sim._ready or sim._heap:
                    ready, heap = sim._ready, sim._heap
                    e = heap[0] if heap and (not ready or heap[0] < ready[0]) \
                        else ready[0]
                    dispatch.append((e[0], e[1]))
                    sim.step()
            else:  # controlled: run() routes through _run_instrumented
                ctl = ScheduleController()
                sim.enable_controller(ctl)
                sim.run()
                dispatch = [(s.time, s.seq) for s in ctl.steps]
            return app, dispatch, (sim._seq, sim._heap_pushes, sim.now)

        ref_app, ref_log, ref_counts = execute("timeout", "step")
        assert ref_log
        for form in ("timeout", "delay"):
            for mode in ("run", "step", "instrumented"):
                app, log, counts = execute(form, mode)
                assert app == ref_app and counts == ref_counts
                if mode != "run":
                    assert log == ref_log

    check()


def test_interrupt_mid_delay_leaves_a_stale_wake():
    """An interrupted delay's heap entry still dispatches at its time;
    the process must ignore it, whether it has since started another
    delay or waits on an event."""
    sim = Simulator()
    log = []
    gate = sim.event()

    def sleeper(sim):
        for wait in ("delay", "event"):
            try:
                yield 5.0
            except Interrupt:
                log.append(("interrupted", sim.now))
            if wait == "delay":
                yield 10.0  # the 5.0 wake at t=5 must not cut this short
            else:
                yield gate
            log.append(("woke", sim.now))

    def interrupter(sim, target):
        yield 2.0
        target.interrupt()  # first round: mid-delay, wake due at 5
        yield 12.0
        target.interrupt()  # second round (t=14): wake due at 17
        yield 5.0
        gate.succeed()  # t=19

    p = sim.spawn(sleeper(sim))
    sim.spawn(interrupter(sim, p))
    sim.run()
    assert log == [("interrupted", 2.0), ("woke", 12.0),
                   ("interrupted", 14.0), ("woke", 19.0)]


@pytest.mark.parametrize("bad", [-1.0, float("nan"), -float("inf")])
def test_negative_or_nan_yielded_delay_raises_valueerror(bad):
    sim = Simulator()

    def proc(sim):
        try:
            yield bad
        except ValueError as exc:
            assert "delay" in str(exc) and repr(bad) in str(exc)
            return sim.now

    assert sim.run_process(proc(sim)) == 0.0


def test_yielded_delay_accepts_float_subclass_and_refuses_other_types():
    np = pytest.importorskip("numpy")
    sim = Simulator()

    def proc(sim):
        yield np.float64(0.5)
        for bad in (1, "0.5", None):
            with pytest.raises(TypeError):
                yield bad
        return sim.now

    assert sim.run_process(proc(sim)) == 0.5
    assert type(sim.now) is float


def test_nan_delay_refused_everywhere():
    sim = Simulator()
    nan = float("nan")
    with pytest.raises(ValueError, match="nan"):
        sim.timeout(nan)
    with pytest.raises(ValueError, match="nan"):
        sim.schedule(nan, lambda: None)
    with pytest.raises(ValueError, match="nan"):
        sim.schedule_at(nan, lambda: None)
    with pytest.raises(ValueError, match="nan"):
        sim.wake_at(nan)
    assert not sim._heap and not sim._ready


def test_schedule_at_lands_on_the_exact_float():
    """Absolute-time scheduling must not round through ``now + delay``:
    the callback fires at the given float bit-exactly, even when
    ``t - now`` is not representable without error."""
    sim = Simulator()
    t = 0.1 + 0.2  # 0.30000000000000004: now + (t - now) != t from 0.1
    seen = []

    def proc(sim):
        yield sim.timeout(0.1)
        sim.schedule_at(t, lambda: seen.append(sim.now))
        yield sim.timeout(1.0)

    sim.run_process(proc(sim))
    assert seen == [t]
    assert seen[0].hex() == t.hex()


def test_schedule_at_now_and_past():
    sim = Simulator()
    seen = []

    def proc(sim):
        yield sim.timeout(1.0)
        sim.schedule_at(1.0, lambda: seen.append("now"))  # t == now: ok
        with pytest.raises(ValueError):
            sim.schedule_at(0.5, lambda: None)
        yield sim.timeout(0.1)

    sim.run_process(proc(sim))
    assert seen == ["now"]


def test_wake_at_delivers_value_at_instant():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(0.25)
        got = yield sim.wake_at(0.75, "payload")
        return got, sim.now

    assert sim.run_process(proc(sim)) == ("payload", 0.75)
