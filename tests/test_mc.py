"""panda-mc: the controlled scheduler, the sleep-set explorer, the
seeded walk, and the happens-before machinery.

The load-bearing claims each get a direct test: a simulator takes one
dispatch controller (the explorer and the walk would both own the
dispatch order); the racy fixture must yield a PL201 naming the exact
racing pair in both modes; only live ranks' leftover messages are
orphans (PL203); an independent pair must collapse to one schedule under
reduction but two under brute force; the real scenarios' schedule
spaces are pinned (a regression here means the engine's branching
structure changed -- re-measure, don't delete); and the property test
checks the reducer against brute-force ground truth: on random toy
producer/consumer workloads, reduced exploration completes *exactly*
the set of distinct Mazurkiewicz traces -- none twice, none missed.
"""

from typing import List, Optional, Sequence, Tuple

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.hb import (
    ScheduleController,
    SleepBlocked,
    WalkController,
    canonical_trace,
    concurrent,
    footprint_key,
    vector_clocks,
)
from repro.analysis.mc import (
    MCScenario,
    Outcome,
    explore,
    mc_scenario,
    mc_scenarios,
    orphans,
    racy_fixture_scenario,
    run_mc,
)
from repro.replay.fingerprint import fingerprint
from repro.sim.engine import SimulationError, Simulator
from repro.sim.resources import Store
from repro.workloads.catalog import CATALOG, RoundtripParams, build


# -- engine-side hooks ------------------------------------------------------

class TestControllerHooks:
    def test_second_controller_is_refused(self):
        sim = Simulator()
        sim.enable_controller(WalkController(7))
        with pytest.raises(SimulationError):
            sim.enable_controller(ScheduleController())

        sim2 = Simulator()
        sim2.enable_controller(ScheduleController())
        with pytest.raises(SimulationError):
            sim2.enable_controller(WalkController(7))

    def test_mc_note_is_a_noop_without_a_controller(self):
        sim = Simulator()
        sim.mc_note("anything")  # must not raise, must not record
        sim.schedule(0.0, lambda _: sim.mc_note("inner"), None)
        sim.run()

    def test_store_access_lands_in_the_step_footprint(self):
        sim = Simulator()
        ctl = ScheduleController()
        sim.enable_controller(ctl)
        store = Store(sim, name="mbox[0]")

        def put(_arg) -> None:
            store.put("x")

        sim.schedule(0.0, put, None)
        sim.run()
        fps = [s.footprint for s in ctl.steps if s.footprint]
        assert fps, "no footprint recorded for the Store access"
        assert footprint_key(store) == "Store:mbox[0]"
        assert any(footprint_key(store) in fp for fp in fps)

    def test_controlled_run_matches_plain_run(self):
        def build(sim: Simulator, out: List[int]) -> None:
            for i in (3, 1, 2):
                sim.schedule(0.1 * i, lambda _a, _i=i: out.append(_i), None)

        plain_sim, plain_out = Simulator(), []
        build(plain_sim, plain_out)
        plain_sim.run()

        ctl_sim, ctl_out = Simulator(), []
        ctl_sim.enable_controller(ScheduleController())
        build(ctl_sim, ctl_out)
        ctl_sim.run()
        assert ctl_out == plain_out == [1, 2, 3]


# -- happens-before ---------------------------------------------------------

def _run_controlled(build) -> ScheduleController:
    sim = Simulator()
    ctl = ScheduleController()
    sim.enable_controller(ctl)
    build(sim)
    sim.run()
    return ctl


class TestHappensBefore:
    def test_conflicting_steps_are_ordered_independent_are_not(self):
        def build(sim: Simulator) -> None:
            def touches(key: Optional[str], name: str):
                def cb(_arg) -> None:
                    if key is not None:
                        sim.mc_note(key)
                cb.__qualname__ = name
                return cb

            def spark(_arg) -> None:
                sim.schedule(0.5, touches("shared", "first"), None)
                sim.schedule(0.5, touches("shared", "second"), None)
                sim.schedule(0.5, touches(None, "loner"), None)

            sim.schedule(0.0, spark, None)

        ctl = _run_controlled(build)
        # local functions carry their full qualname; key on the last part
        by_label = {s.label.rsplit(".", 1)[-1]: s.index for s in ctl.steps}
        clocks = vector_clocks(ctl.steps)
        # same-key steps are HB-ordered (conflict edge)
        assert not concurrent(clocks, by_label["first"], by_label["second"])
        # the footprint-free step is concurrent with both
        assert concurrent(clocks, by_label["first"], by_label["loner"])
        assert concurrent(clocks, by_label["second"], by_label["loner"])
        # creation: spark precedes everything it queued
        for child in ("first", "second", "loner"):
            assert not concurrent(clocks, by_label["spark"], by_label[child])

    def test_canonical_trace_ignores_order_of_independent_steps(self):
        def build(order: Sequence[str]):
            def inner(sim: Simulator) -> None:
                def touches(key: str, name: str):
                    def cb(_arg) -> None:
                        sim.mc_note(key)
                    cb.__qualname__ = name
                    return cb

                def spark(_arg) -> None:
                    for name in order:
                        sim.schedule(0.5, touches(f"key-{name}", name), None)

                sim.schedule(0.0, spark, None)
            return inner

        a = canonical_trace(_run_controlled(build(("p", "q"))).steps)
        b = canonical_trace(_run_controlled(build(("q", "p"))).steps)
        assert a == b


# -- the explorer -----------------------------------------------------------

def _pair_scenario(shared: bool) -> Tuple[MCScenario, List[Tuple]]:
    """Two same-instant writers; ``shared`` decides whether they touch
    the same key.  Returns the scenario plus a list collecting the
    canonical trace of every *completed* execution."""
    traces: List[Tuple] = []

    def run(ctl: ScheduleController) -> Outcome:
        sim = Simulator()
        sim.enable_controller(ctl)

        def make(name: str, key: str):
            def cb(_arg) -> None:
                sim.mc_note(key)
            cb.__qualname__ = name
            return cb

        def spark(_arg) -> None:
            sim.schedule(0.5, make("w1", "k-shared" if shared else "k-1"), None)
            sim.schedule(0.5, make("w2", "k-shared" if shared else "k-2"), None)

        sim.schedule(0.0, spark, None)
        try:
            sim.run()
        except SleepBlocked:
            return Outcome("sleep-blocked")
        traces.append(canonical_trace(ctl.steps))
        return Outcome("complete", fingerprint=None)

    return MCScenario("pair", run), traces


class TestExplore:
    def test_independent_pair_collapses_to_one_schedule(self):
        scenario, traces = _pair_scenario(shared=False)
        res = explore(scenario)
        assert res.complete and res.ok
        assert res.schedules == 1
        assert res.sleep_blocked == 1  # the pruned swapped order
        assert len(set(traces)) == 1

    def test_conflicting_pair_explores_both_orders(self):
        scenario, traces = _pair_scenario(shared=True)
        res = explore(scenario)
        assert res.complete and res.ok  # fingerprint=None: no divergence
        assert res.schedules == 2
        assert res.sleep_blocked == 0
        assert len(traces) == 2 and traces[0] != traces[1]

    def test_brute_force_visits_every_interleaving(self):
        scenario, traces = _pair_scenario(shared=False)
        res = explore(scenario, reduce=False)
        assert res.schedules == 2  # both orders, no pruning
        assert len(traces) == 2
        assert len(set(traces)) == 1  # ... but they are the same trace

    def test_racy_fixture_yields_divergence_naming_the_pair(self):
        res = explore(racy_fixture_scenario())
        assert res.complete
        assert res.schedules == 2
        assert [f.rule for f in res.findings] == ["PL201"]
        finding = res.findings[0]
        assert finding.racing is not None
        pair = " / ".join(finding.racing)
        assert "writer_a" in pair and "writer_b" in pair
        assert "shared-list" in pair

    def test_walks_alone_catch_the_racy_fixture(self):
        # a budget of one leaves the baseline, then the walks
        res = explore(racy_fixture_scenario(), max_schedules=1, walks=5)
        assert not res.complete and res.walks == 5
        assert res.findings and {f.rule for f in res.findings} == {"PL201"}
        for finding in res.findings:
            assert finding.walk > 0
            pair = " / ".join(finding.racing)
            assert "writer_a" in pair and "writer_b" in pair

    def test_budget_truncation_is_reported_not_silent(self):
        scenario, _ = _pair_scenario(shared=True)
        res = explore(scenario, max_schedules=1)
        assert not res.complete
        assert res.schedules == 1  # only the baseline ran


# -- the real scenarios: pinned schedule spaces -----------------------------

class TestRealScenarios:
    """The counts pin the engine's branching structure at the mc
    configurations.  A change here is not automatically a bug -- but it
    must be *explained* (new dispatch site, changed same-instant
    grouping) and re-measured, never waved through."""

    def test_full_sweep_is_exhaustive_and_clean(self):
        report = run_mc([s for s in mc_scenarios() if s.name.startswith("mc-")])
        assert report.ok, report.summary()
        assert report.complete, report.summary()
        by_name = {r.scenario: r for r in report.results}
        assert set(by_name) == {
            "mc-roundtrip", "mc-sched-fifo", "mc-sched-sjf",
            "mc-sched-fair", "mc-sharded-2",
        }
        rt = by_name["mc-roundtrip"]
        assert (rt.schedules, rt.sleep_blocked, rt.steps, rt.decisions) \
            == (1, 74, 143, 13)
        for policy in ("fifo", "sjf", "fair"):
            r = by_name[f"mc-sched-{policy}"]
            assert (r.schedules, r.sleep_blocked, r.decisions) == (1, 31, 5)
        sh = by_name["mc-sharded-2"]
        assert (sh.schedules, sh.sleep_blocked, sh.decisions) == (1, 65, 8)

    def test_brute_force_roundtrip_is_schedule_independent(self):
        # ground truth for the reduction on a *real* pipeline, not a
        # toy: at a minimal roundtrip config all 48 raw interleavings
        # complete bit-identically, and reduction collapses them to the
        # single Mazurkiewicz trace (the mc-roundtrip config itself has
        # too many raw interleavings to brute-force in a test)
        def tiny():
            return mc_scenario("tiny-roundtrip", RoundtripParams(
                shape=(4, 4), mem_mesh=(2, 1), n_io=1))

        brute = explore(tiny(), reduce=False)
        assert brute.complete and brute.ok, \
            [f.describe() for f in brute.findings]
        assert brute.schedules == 48
        assert brute.sleep_blocked == 0

        red = explore(tiny())
        assert red.complete and red.ok
        assert (red.schedules, red.sleep_blocked) == (1, 8)

    def test_crashed_servers_mailbox_is_not_an_orphan(self):
        # the supervisor's SHUTDOWN to the crashed server waits in its
        # mailbox until the next run purges it; that is not a PL203
        res = explore(mc_scenario("crash-recovery", CATALOG["crash-recovery"]))
        assert res.complete and res.ok, [f.describe() for f in res.findings]
        built = build(CATALOG["crash-recovery"])
        built.run()
        rt = built.runtime
        assert rt.crashed_servers == {1}
        assert len(rt.network.mailboxes[rt.server_rank(1)]) == 1
        assert orphans(rt) == 0

    def test_message_left_for_a_live_rank_is_an_orphan(self):
        spec = RoundtripParams(shape=(4, 4), mem_mesh=(2, 1), n_io=1)

        def run(ctl: ScheduleController) -> Outcome:
            built = build(spec)
            built.runtime.sim.enable_controller(ctl)
            fp = fingerprint(built, built.run())
            rt = built.runtime
            assert not rt.crashed_servers
            rt.network.mailboxes[rt.server_rank(0)].put("stray")
            return Outcome("complete", fingerprint=fp, orphans=orphans(rt))

        res = explore(MCScenario("stray", run), max_schedules=1, walks=1)
        assert [(f.rule, f.walk) for f in res.findings] == [
            ("PL203", 0), ("PL203", 1)]
        assert res.findings[0].message == \
            "1 orphan message(s) queued at quiescence"


# -- property test: reduction vs brute-force ground truth -------------------

def _toy_scenario(plan: Sequence[Tuple[str, str]]) -> Tuple[MCScenario, List[Tuple]]:
    """Two producers and one consumer over a shared buffer.  ``plan``
    gives each producer event a name and the key it touches ("buf" is
    the shared buffer; anything else is producer-private).  All
    producer events land at the same instant; the consumer drains the
    buffer afterwards, so it is HB-after every "buf" toucher but never
    races.  Returns the scenario plus the canonical trace of every
    completed execution."""
    traces: List[Tuple] = []

    def run(ctl: ScheduleController) -> Outcome:
        sim = Simulator()
        sim.enable_controller(ctl)

        def make(name: str, key: str):
            def cb(_arg) -> None:
                sim.mc_note(key)
            cb.__qualname__ = name
            return cb

        def spark(_arg) -> None:
            for name, key in plan:
                sim.schedule(0.5, make(name, key), None)
            sim.schedule(1.0, make("consume", "buf"), None)

        sim.schedule(0.0, spark, None)
        try:
            sim.run()
        except SleepBlocked:
            return Outcome("sleep-blocked")
        traces.append(canonical_trace(ctl.steps))
        return Outcome("complete", fingerprint=None)

    return MCScenario("toy", run), traces


@st.composite
def _plans(draw):
    n_a = draw(st.integers(min_value=1, max_value=2))
    n_b = draw(st.integers(min_value=1, max_value=2))
    plan = []
    for prod, n in (("a", n_a), ("b", n_b)):
        for i in range(n):
            shared = draw(st.booleans())
            plan.append((f"prod_{prod}{i}", "buf" if shared else f"priv-{prod}"))
    return plan


class TestReductionSoundness:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(plan=_plans())
    def test_reduced_enumeration_equals_distinct_traces(self, plan):
        brute_scn, brute_traces = _toy_scenario(plan)
        brute = explore(brute_scn, reduce=False)
        assert brute.complete and brute.ok
        assert len(brute_traces) == brute.schedules

        red_scn, red_traces = _toy_scenario(plan)
        red = explore(red_scn)
        assert red.complete and red.ok
        assert len(red_traces) == red.schedules

        # exactly one completed execution per Mazurkiewicz trace:
        # no trace visited twice ...
        assert len(red_traces) == len(set(red_traces))
        # ... and none missed (nor invented) vs brute-force ground truth
        assert set(red_traces) == set(brute_traces)
        assert red.schedules == len(set(brute_traces))
