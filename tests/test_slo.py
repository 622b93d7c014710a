"""Per-tenant latency SLOs: the tracker's edge cases, the ``slo``
admission policy's enforcement behavior, and the client-visible
rejection path.

The edge cases the design documents (DESIGN.md section 15):

- a tenant's **first ops** carry no history and are admitted normally
  (``min_history`` guards the cold window);
- a budget **exactly met** is compliant -- both demotion and shedding
  are strict inequalities;
- a shed tenant that backs off past ``cooloff`` is **forgiven**: its
  window clears and it re-enters with a clean slate;
- the policy **never penalizes an under-budget tenant**: whatever a
  compliant tenant's history, it is neither demoted nor shed
  (property-based below), and end-to-end its ops all complete.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import PandaConfig, PandaRuntime, SchedulerConfig
from repro.core.protocol import OpRejected, OpRejection
from repro.core.scheduler import SLOPolicy, SLO_HEALTHY_BOOST, make_policy
from repro.obs.slo import SLOBudget, SLOTracker, quantile, render_slo

from repro.bench.soak import run_slo_comparison


BUDGET = SLOBudget(turnaround_p99=1.0, min_history=3)


# -- tracker edge cases ------------------------------------------------------

def test_first_ops_have_no_history_and_are_never_penalized():
    t = SLOTracker(BUDGET)
    # no window at all
    assert not t.exhausted(7, now=0.0)
    assert not t.should_shed(7, now=0.0)
    # fewer than min_history samples, all wildly over budget: still
    # admitted normally -- the tracker must be allowed to learn
    t.record(7, queue_wait=5.0, turnaround=50.0, now=1.0)
    t.record(7, queue_wait=5.0, turnaround=50.0, now=2.0)
    assert not t.exhausted(7, now=2.0)
    assert not t.should_shed(7, now=2.0)
    # the min_history-th sample arms enforcement
    t.record(7, queue_wait=5.0, turnaround=50.0, now=3.0)
    assert t.exhausted(7, now=3.0)
    assert t.should_shed(7, now=3.0)


def test_budget_exactly_met_is_compliant():
    t = SLOTracker(BUDGET)
    for k in range(5):
        t.record(1, queue_wait=0.0, turnaround=BUDGET.turnaround_p99,
                 now=float(k))
    assert not t.exhausted(1, now=5.0)
    assert not t.should_shed(1, now=5.0)
    # one sample strictly above tips the p99 over
    t.record(1, 0.0, BUDGET.turnaround_p99 + 1e-9, now=6.0)
    assert t.exhausted(1, now=6.0)


def test_shed_threshold_is_a_multiple_of_the_budget():
    t = SLOTracker(BUDGET)
    over = BUDGET.turnaround_p99 * 1.5  # demoted, not shed (factor 2)
    for k in range(4):
        t.record(2, 0.0, over, now=float(k))
    assert t.exhausted(2, now=4.0)
    assert not t.should_shed(2, now=4.0)
    for k in range(t._window_len):
        t.record(2, 0.0, BUDGET.shed_threshold * 1.01, now=10.0 + k)
    assert t.should_shed(2, now=99.0)


def test_shed_then_recover_via_cooloff():
    budget = SLOBudget(turnaround_p99=1.0, cooloff=10.0)
    t = SLOTracker(budget)
    for k in range(4):
        t.record(3, 0.0, 9.0, now=float(k))
    assert t.should_shed(3, now=4.0)
    t.note_shed(3, now=4.5)
    # hammering the master is a sighting: still shed shortly after
    assert t.should_shed(3, now=5.0)
    # ... but a tenant quiet for the whole cooloff is forgiven
    assert not t.should_shed(3, now=4.5 + budget.cooloff)
    assert not t.exhausted(3, now=4.5 + budget.cooloff)
    assert t.total_shed == 1


@settings(max_examples=200, deadline=None)
@given(
    turnarounds=st.lists(st.floats(min_value=0.0, max_value=1.0),
                         min_size=1, max_size=80),
    window=st.integers(1, 64),
    min_history=st.integers(1, 8),
)
def test_under_budget_tenant_is_never_penalized(turnarounds, window,
                                                min_history):
    """The non-starvation property, at the tracker level: whatever an
    under-budget tenant's history (every sample <= budget), it is never
    demoted or shed."""
    budget = SLOBudget(turnaround_p99=1.0, window=window,
                       min_history=min_history)
    t = SLOTracker(budget)
    for k, x in enumerate(turnarounds):
        t.record(5, queue_wait=0.0, turnaround=x, now=float(k))
        assert not t.exhausted(5, now=float(k))
        assert not t.should_shed(5, now=float(k))


def test_quantile_nearest_rank():
    xs = sorted(float(i) for i in range(1, 101))
    assert quantile(xs, 0.99) == 99.0
    assert quantile(xs, 0.50) == 50.0
    assert quantile([4.2], 0.99) == 4.2
    with pytest.raises(ValueError):
        quantile([], 0.5)


def test_budget_validation():
    with pytest.raises(ValueError, match="budget"):
        SLOBudget(turnaround_p99=0.0)
    with pytest.raises(ValueError, match="shed_factor"):
        SLOBudget(turnaround_p99=1.0, shed_factor=0.5)
    with pytest.raises(ValueError, match="policy='slo'"):
        SchedulerConfig(policy="fifo", slo=BUDGET)


# -- policy plumbing ---------------------------------------------------------

def test_slo_policy_demotion_key_and_weight():
    cfg = SchedulerConfig(policy="slo", slo=BUDGET)
    policy = make_policy(cfg)
    assert isinstance(policy, SLOPolicy)
    # healthy tenants get the DRR boost, demoted ones the floor
    assert policy.drr_weight(2, demoted=False) == 2 * SLO_HEALTHY_BOOST
    assert policy.drr_weight(2, demoted=True) == 1
    # demoted arrivals sort after every healthy arrival
    class E:
        def __init__(self, seq, demoted):
            self.admit_seq, self.demoted = seq, demoted
    assert (policy.admission_key(E(10, False))
            < policy.admission_key(E(1, True)))


# -- end-to-end enforcement --------------------------------------------------

@pytest.fixture(scope="module")
def comparison():
    """The soak bench's contended workload, run once per module: eight
    heavy streamers from t=0, six small tenants from t=9 -- under both
    the slo and fifo policies."""
    return run_slo_comparison()


def test_slo_holds_budget_fifo_violates(comparison):
    budget = comparison["budget"]
    assert comparison["slo"]["small_p99"] <= budget
    assert comparison["fifo"]["small_p99"] > budget


def test_over_budget_tenants_are_demoted_and_shed(comparison):
    assert comparison["slo"]["demoted"] > 0
    assert comparison["slo"]["shed"] > 0
    # fifo never penalizes anyone
    assert comparison["fifo"]["demoted"] == 0
    assert comparison["fifo"]["shed"] == 0


def test_no_small_tenant_op_is_ever_lost(comparison):
    """Non-starvation end-to-end: every under-budget tenant op
    completes, under both policies."""
    for policy in ("slo", "fifo"):
        assert comparison[policy]["small_ops"] == 6 * 6


def test_rejection_is_client_visible_and_absent_from_oplog():
    """A shed op raises :class:`OpRejected` inside the client app (on
    every rank of the group) and leaves no completed-op record."""
    from repro.core.api import Array, ArrayGroup, ArrayLayout
    from repro.machine import sp2
    from repro.schema.distribution import BLOCK

    mem = ArrayLayout("slo-mem", (2,))
    disk = ArrayLayout("slo-disk", (2,))
    arr = Array("slo-arr", (64,), np.float64, mem, [BLOCK], disk, [BLOCK])
    group = ArrayGroup("slo-grp")
    group.include(arr)

    caught = {}

    def app(ctx):
        ctx.bind(arr)
        # feed the tracker min_history over-threshold turnarounds by
        # writing with an artificially slow data plane, then expect the
        # next op to be rejected on both ranks
        for k in range(4):
            try:
                yield from group.write(ctx, "hot")
            except OpRejected as exc:
                caught[ctx.rank] = exc.rejection
                return
            yield from ctx.compute(1e-3)

    budget = SLOBudget(turnaround_p99=1e-7, shed_factor=1.0,
                       min_history=3)
    sched = SchedulerConfig(policy="slo", slo=budget)
    rt = PandaRuntime(
        n_compute=2, n_io=2, spec=sp2(total_nodes=4),
        config=PandaConfig(scheduler=sched), real_payloads=False,
        trace=True,
    )
    rt.run(app)
    # both group ranks saw the same rejection
    assert set(caught) == {0, 1}
    rej = caught[0]
    assert isinstance(rej, OpRejection)
    assert caught[1] == rej
    assert rej.dataset == "hot"
    assert rej.p99 > rej.budget
    # 3 completions then a shed: the rejected op left no record
    tracker = rt.slo_trackers[0]
    assert tracker.total_shed == 1
    done = [r for r in rt.sched_stats.completed_ops()]
    assert len(done) == 3
    assert len(rt.oplog.records) == 3
    assert any(rec.kind == "sched_reject" for rec in rt.trace.records)


def test_shed_ops_are_captured_and_replay_to_the_same_rejection():
    """Shed ops are stimuli: a capture of a run that sheds records the
    rejected arrivals (on every rank of the group), and replaying the
    trace reproduces the same collective :class:`OpRejected` -- again
    with no completed-op record, no oplog entry and no stats residue
    beyond the recording's."""
    from repro.core.api import Array, ArrayGroup, ArrayLayout
    from repro.machine import sp2
    from repro.replay import TraceRecorder, WorkloadTrace, replay
    from repro.schema.distribution import BLOCK

    mem = ArrayLayout("slo-mem", (2,))
    disk = ArrayLayout("slo-disk", (2,))
    arr = Array("slo-arr", (64,), np.float64, mem, [BLOCK], disk, [BLOCK])
    group = ArrayGroup("slo-grp")
    group.include(arr)

    def app(ctx):
        ctx.bind(arr)
        for k in range(4):
            try:
                yield from group.write(ctx, "hot")
            except OpRejected:
                return
            yield from ctx.compute(1e-3)

    budget = SLOBudget(turnaround_p99=1e-7, shed_factor=1.0,
                       min_history=3)
    sched = SchedulerConfig(policy="slo", slo=budget)
    rt = PandaRuntime(
        n_compute=2, n_io=2, spec=sp2(total_nodes=4),
        config=PandaConfig(scheduler=sched), real_payloads=False,
    )
    recorder = TraceRecorder(rt, name="shed")
    rt.run(app)
    trace = WorkloadTrace.loads(recorder.trace().dumps())

    # both ranks' 4th op is recorded as shed
    events = trace.doc["runs"][0]["events"]
    for rank in ("0", "1"):
        ops = [ev for ev in events[rank] if ev["type"] == "op"]
        assert [ev["rejected"] for ev in ops] == [False] * 3 + [True]

    # the replay reproduces the rejection collectively, with the same
    # absence of residue the original run had
    outcome = replay(trace)
    assert outcome.ok, outcome.mismatches
    rt2 = outcome.runtime
    assert sum(t.total_shed for t in rt2.slo_trackers.values()) == 1
    assert len([r for r in rt2.sched_stats.completed_ops()]) == 3
    assert len(rt2.oplog.records) == 3


def test_slo_summary_surfaces_in_describe_and_metrics():
    out = run_slo_comparison(n_small=2, n_heavy=2, small_ops=2,
                             heavy_ops=4)
    assert out["slo"]["small_ops"] == 4
    # render_slo emits per-tenant samples in Prometheus text shape
    tracker = SLOTracker(BUDGET, shard=0)
    tracker.record(3, 0.01, 0.5, now=1.0)
    text = render_slo({0: tracker})
    assert 'panda_slo_turnaround_p99{shard="0",tenant="3"}' in text
    assert 'panda_slo_budget_seconds{shard="0"}' in text
