"""The soak + failover drill harness: determinism, integrity, the
crash plan, and the cross-run crash rescheduling it depends on.

The drill's whole value is that it is *reproducible* stress: the same
parameters must yield the bit-identical metrics dict however often it
is rerun, or a flushed-out bug could never be bisected.  Sizes here
are small (the committed full hour lives in BENCH_soak.json, gated by
``bench_soak.py --check``); the properties are the same.
"""

import hashlib

import pytest

from repro.core import PandaConfig, PandaRuntime, SchedulerConfig
from repro.faults import FaultSpec
from repro.bench.soak import crash_at, crash_plan, run_soak_drill

DRILL = dict(n_tenants=12, n_io=4, n_shards=2, cycles=4, cycle_span=60.0)


@pytest.fixture(scope="module")
def drill():
    return run_soak_drill(**DRILL)


def test_drill_is_bit_identical_across_reruns(drill):
    assert run_soak_drill(**DRILL) == drill


def test_every_byte_read_back(drill):
    s = drill["summary"]
    # head verify for cycles 1..3 plus tail verify for the two clean
    # cycles: (3 + 2) * 12 tenants
    assert s["integrity_checks"] == 5 * DRILL["n_tenants"]
    assert s["integrity_failures"] == 0


def test_crashes_hit_inflight_work(drill):
    rows = drill["cycles_detail"]
    crashed = [r for r in rows if r["crashed"] >= 0]
    assert len(crashed) == DRILL["cycles"] - 2
    for r in crashed:
        assert r["server_crashes"] == 1
        assert r["recoveries"] > 0, (
            f"cycle {r['cycle']}: the crash landed on an idle system -- "
            "the drill is not stressing recovery")
    # both classes of victim appear: a data node and a shard master
    victims = {r["crashed"] for r in crashed}
    assert any(v < DRILL["n_shards"] for v in victims)
    assert any(v >= DRILL["n_shards"] for v in victims)


def test_admission_wait_slo(drill):
    s = drill["summary"]
    assert s["wait_regression"] <= 2.0
    assert s["recovery_max"] <= 60.0


def _hx(t):
    return "-" if t is None else t.hex()


def test_every_runs_admission_schedule_is_pinned(monkeypatch):
    """Each of the drill's runs on its one runtime, pinned row by row:
    dataset, arrival, admission and completion instants as float hex,
    bytes moved, in admission order.  ``admit_seq`` is left out, so a
    change to the numbering alone cannot move the pin, while any
    change to when an op is admitted or served does.  The crash cycles
    hold orphan rows: ops admitted by a shard master that then died,
    and admitted again by the next live owner."""
    runs = []
    run_partitioned = PandaRuntime.run_partitioned

    def spy(rt, *args, **kwargs):
        result = run_partitioned(rt, *args, **kwargs)
        runs.append("\n".join(
            f"{r.dataset}:{_hx(r.arrived)}:{_hx(r.admitted)}:"
            f"{_hx(r.completed)}:{r.moved}" for r in rt.sched_stats.ops))
        return result

    monkeypatch.setattr(PandaRuntime, "run_partitioned", spy)
    run_soak_drill(**DRILL)
    assert [r.count("\n") + 1 for r in runs] == [24, 24, 26, 36]
    assert [hashlib.sha256(r.encode()).hexdigest()[:16] for r in runs] == [
        "262dbcf74cf5b486", "0b1bb97a636df3e5", "f91c98c6576ab3d7",
        "1889668b20bd291c"]


def test_crash_plan_never_kills_the_root():
    for n_io, n_shards, cycles in ((4, 1, 6), (8, 4, 12), (2, 1, 3)):
        plan = crash_plan(n_io, n_shards, cycles)
        assert len(plan) == cycles - 2
        assert 0 not in plan  # cycle 0 is the baseline
        assert cycles - 1 not in plan  # the last cycle verifies
        for cycle, victim in plan.items():
            assert 1 <= victim < n_io
    with pytest.raises(ValueError, match="no data nodes"):
        crash_plan(4, 4, 6)


def test_crash_instant_scales_with_the_storm():
    assert crash_at(200, 1e-3) == pytest.approx(30.1)
    # tiny storms still get a mid-storm crash, not a post-storm one
    assert crash_at(8, 1e-3) == pytest.approx(30.01)


# -- reschedule_crashes: the cross-run fault-plan swap -----------------------

def _fault_runtime(n_shards=2):
    sched = SchedulerConfig(policy="fifo", n_shards=n_shards)
    return PandaRuntime(
        n_compute=2, n_io=4,
        config=PandaConfig(scheduler=sched, faults=FaultSpec(seed=1)),
        real_payloads=False,
    )


def test_reschedule_requires_fault_mode():
    rt = PandaRuntime(n_compute=2, n_io=2, real_payloads=False)
    with pytest.raises(ValueError, match="fault mode"):
        rt.reschedule_crashes([(1, 0.5)])


def test_reschedule_validates_indices():
    rt = _fault_runtime()
    with pytest.raises(ValueError, match="out of range"):
        rt.reschedule_crashes([(9, 0.5)])


def test_reschedule_master_crash_needs_shards():
    rt = _fault_runtime(n_shards=1)
    with pytest.raises(ValueError, match="sharded scheduler"):
        rt.reschedule_crashes([(0, 0.5)])


def test_reschedule_swaps_the_spec_coherently():
    rt = _fault_runtime()
    rt.reschedule_crashes([(3, 0.25)])
    assert rt.config.faults.crashes == ((3, 0.25),)
    assert rt.injector.spec is rt.config.faults
    assert rt.injector.plan.spec is rt.config.faults
    # seeds and rates survive the swap
    assert rt.config.faults.seed == 1
    rt.reschedule_crashes([])
    assert rt.config.faults.crashes == ()
