"""The observability layer: Chrome trace export, metrics, critical path.

Everything here runs seeded Figure-3-shaped workloads (read, natural
chunking, real disk) through :func:`repro.bench.harness.
run_traced_point`, so the assertions exercise the same paths the
``python -m repro trace`` CLI uses.
"""

import hashlib
import json
import math

import pytest

from repro.bench.harness import run_traced_point
from repro.bench.stats import utilization
from repro.obs import analyze, observe_trace, to_chrome_trace, write_chrome_trace
from repro.obs.critical_path import PHASES
from repro.obs.metrics import DURATION_BUCKETS, Histogram, MetricsRegistry, attach


@pytest.fixture(scope="module")
def fig3_point():
    """One traced Figure-3 point: 16 MB read, 8 CN / 2 ION, real disk."""
    registry = MetricsRegistry()
    result, report = run_traced_point(
        "read", 8, 2, (128, 128, 128), disk_schema="natural",
        fast_disk=False, registry=registry,
    )
    return result, report, registry


# -- Chrome trace export -----------------------------------------------------

REQUIRED_KEYS = {"name", "ph", "ts", "pid"}


def test_chrome_trace_schema(fig3_point):
    result, _report, _reg = fig3_point
    doc = to_chrome_trace(result.trace)
    assert set(doc) == {"traceEvents", "displayTimeUnit"}
    events = doc["traceEvents"]
    assert events, "traced run exported no events"
    for ev in events:
        assert REQUIRED_KEYS - set(ev) == set() or ev["ph"] == "M", ev
        if ev["ph"] == "M":
            assert ev["name"] in ("process_name", "thread_name")
            assert "name" in ev["args"]
        else:
            assert isinstance(ev["pid"], int)
            assert isinstance(ev["tid"], int)
            assert ev["ts"] >= 0
        if ev["ph"] == "X":
            assert ev["dur"] >= 0


def test_chrome_trace_pid_tid_mapping(fig3_point):
    """Every (pid, tid) that carries events has a thread_name, every
    pid a process_name, and the names match the simulated resources."""
    result, _report, _reg = fig3_point
    events = to_chrome_trace(result.trace)["traceEvents"]
    named_pids = {
        ev["pid"]: ev["args"]["name"]
        for ev in events if ev["ph"] == "M" and ev["name"] == "process_name"
    }
    named_tids = {
        (ev["pid"], ev["tid"]): ev["args"]["name"]
        for ev in events if ev["ph"] == "M" and ev["name"] == "thread_name"
    }
    used = {(ev["pid"], ev["tid"]) for ev in events if ev["ph"] != "M"}
    assert used <= set(named_tids), "events on unnamed tracks"
    assert {p for p, _ in used} <= set(named_pids)
    names = set(named_tids.values())
    # 8 clients, 2 servers, 2 disks on the expected tracks
    assert {f"client{r}" for r in range(8)} <= names
    assert {"server0", "server1"} <= names
    assert {"ionode0.disk", "ionode1.disk"} <= names
    assert any(n.startswith("out[") for n in names)
    assert any(n.startswith("in[") for n in names)


def test_chrome_trace_spans_match_trace_records(fig3_point):
    """Disk spans reconstruct [time - service, time] of their records."""
    result, _report, _reg = fig3_point
    events = to_chrome_trace(result.trace)["traceEvents"]
    disk_spans = [
        ev for ev in events
        if ev["ph"] == "X" and ev.get("cat") == "disk"
    ]
    disk_recs = [
        r for r in result.trace.records
        if r.kind in ("disk_read", "disk_write")
    ]
    assert len(disk_spans) == len(disk_recs)
    for ev, rec in zip(disk_spans, disk_recs):
        assert ev["ts"] == pytest.approx(
            (rec.time - rec.detail["service"]) * 1e6
        )
        assert ev["dur"] == pytest.approx(rec.detail["service"] * 1e6)
        assert ev["args"]["nbytes"] == rec.detail["nbytes"]


def test_write_chrome_trace_roundtrips(tmp_path, fig3_point):
    result, _report, _reg = fig3_point
    path = tmp_path / "trace.json"
    write_chrome_trace(result.trace, str(path))
    doc = json.loads(path.read_text())
    assert doc["traceEvents"] == to_chrome_trace(result.trace)["traceEvents"]


# -- critical path -----------------------------------------------------------

def test_phases_sum_to_window(fig3_point):
    result, report, _reg = fig3_point
    assert set(report.phases) == set(PHASES)
    assert sum(report.phases.values()) == pytest.approx(
        report.total, rel=1e-12, abs=1e-12
    )
    # the window is the timed run: [sim.now - elapsed, sim.now]
    assert report.t_end == result.runtime.sim.now
    assert report.total == pytest.approx(result.elapsed)
    assert all(v >= 0 for v in report.phases.values())


def test_chain_tiles_window(fig3_point):
    _result, report, _reg = fig3_point
    assert report.chain[0].start == report.t0
    assert report.chain[-1].end == pytest.approx(report.t_end)
    for a, b in zip(report.chain, report.chain[1:]):
        assert b.start == pytest.approx(a.end)
    for seg in report.chain:
        assert seg.phase in PHASES
        assert seg.duration >= 0


def test_fig3_is_disk_bound_consistent_with_utilization(fig3_point):
    """A real-disk Figure-3 run is disk-bound, and the critical path's
    disk share agrees with the runtime's disk-utilization accounting."""
    result, report, _reg = fig3_point
    assert report.verdict == "disk-bound"
    assert "disk-bound" in report.verdict_line()
    stats = utilization(result.runtime)
    assert max(stats.disk_utilization) > 0.5
    # both measure the same saturation; the critical path confines
    # itself to the timed window, so agree loosely
    assert report.share("disk") == pytest.approx(
        max(stats.disk_utilization), abs=0.15
    )
    # the verdict also surfaces through RunResult.describe()
    assert "critical path: disk-bound" in result.describe()


def test_fast_disk_run_is_not_disk_bound():
    """With infinitely fast disks (Figure 5 mode) the disk phase
    collapses and the verdict moves off disk-bound."""
    _result, report = run_traced_point(
        "read", 8, 2, (128, 128, 128), disk_schema="natural", fast_disk=True,
    )
    assert report.phases["disk"] == 0.0
    assert report.verdict in ("network-bound", "startup-bound")


def test_analyze_empty_window():
    report = analyze(None, t0=0.0, t_end=0.0)
    assert report.total == 0.0
    assert sum(report.phases.values()) == 0.0
    assert report.verdict == "startup-bound"


# -- metrics -----------------------------------------------------------------

def _rendered(registry):
    """``{sample name with labels: value text}`` of a render."""
    return dict(line.rsplit(" ", 1)
                for line in registry.render().splitlines()
                if not line.startswith("#"))


def test_attached_observers_record_utilization(fig3_point):
    """The rendered disk-arm mean, taken over ``[0, the arm's last
    change]``, carries the disk model's own busy-seconds accounting."""
    result, _report, registry = fig3_point
    stats = utilization(result.runtime)
    values = _rendered(registry)
    for i, fs in enumerate(result.runtime.filesystems):
        t_last = fs.disk.arm.occupancy()[2]
        mean = float(values[f'panda_disk_arm_in_use_mean{{disk="{i}"}}'])
        assert mean * t_last == pytest.approx(
            stats.disk_utilization[i] * stats.sim_time, rel=1e-6
        )
        assert values[f'panda_disk_arm_in_use_max{{disk="{i}"}}'] == "1"
    assert "panda_sim_events_total" in values
    assert 'panda_link_in_use{link="out[0]"}' in values
    assert 'panda_mailbox_depth{rank="0"}' in values


#: ``attach(...).render()`` of the traced 4x2 golden roundtrip (the
#: ``GOLDEN_TRACE_SHA256`` scenario of test_determinism_golden.py)
GOLDEN_RENDER_SHA256 = (
    "7abf8e2c595dc16273452a6d03cab915647d1ffcf2168bcd39963f67bab89146")


def _golden_roundtrip(watch=None):
    """The traced 4x2 golden roundtrip; ``watch(runtime)`` is called
    before it runs.  Returns the runtime."""
    import numpy as np

    from repro.core import BLOCK, Array, ArrayLayout, PandaRuntime
    from repro.workloads.apps import write_read_roundtrip_app

    memory = ArrayLayout("mem", (2, 2))
    a = Array("a", (64, 48), np.float64, memory, (BLOCK, BLOCK))
    rt = PandaRuntime(n_compute=4, n_io=2, real_payloads=False, trace=True)
    if watch is not None:
        watch(rt)
    rt.run(write_read_roundtrip_app([a], "golden"))
    return rt


def test_attach_golden_render_is_pinned():
    """The whole metrics snapshot of the golden roundtrip, not just its
    family names: every occupancy last/max/mean, the dispatched-event
    count and the final clock."""
    registry = MetricsRegistry()
    _golden_roundtrip(lambda rt: attach(rt, registry))
    values = _rendered(registry)
    assert values["panda_sim_events_total"] == "143"
    assert float(values["panda_sim_now_seconds"]) == float.fromhex(
        "0x1.4f7895d6a8b6ep-2")
    text = registry.render()
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_RENDER_SHA256


def _sharded_fault_stress():
    from tests.test_sharding_faults import run_stress

    return run_stress("fair")[0]


#: sha256 of both trace views, ``json.dumps(to_chrome_trace(trace))``
#: and ``observe_trace(trace, MetricsRegistry()).render()``, of two
#: traced runs: the golden roundtrip, and the fair run of
#: test_sharding_faults (sharded admission with a shard-master crash,
#: so ``sched_*`` spans and the fault, retry and recovery records --
#: kinds with no Chrome view -- are in the trace)
TRACE_VIEW_SHA256 = {
    "golden-roundtrip": (
        _golden_roundtrip,
        "0031a256536996708c7ad3526c1a477db9a8f37c3663d02f1c4ebe00ff578a37",
        "ea92d3870242f8db9bd8aedeea7ed8db75e69e28bd1c6dd0e508b208b8d73706"),
    "sharded-fault-stress": (
        _sharded_fault_stress,
        "6520ec8c917d2e668941cd7b2721372fd5af007dcad25451553c8830e8149b20",
        "cbfe1caac7d459a7899571696c21837a8bd849f0ea7fe392b3e6f783ad9721ca"),
}


@pytest.mark.parametrize("run", sorted(TRACE_VIEW_SHA256))
def test_trace_views_are_pinned(run):
    """Both views of a trace, byte for byte: every exported event (its
    order, track, span and args, the metadata rows) and every
    back-filled histogram and per-kind counter."""
    make, chrome_sha, metrics_sha = TRACE_VIEW_SHA256[run]
    trace = make().trace
    chrome = json.dumps(to_chrome_trace(trace))
    assert hashlib.sha256(chrome.encode()).hexdigest() == chrome_sha
    text = observe_trace(trace, MetricsRegistry()).render()
    assert hashlib.sha256(text.encode()).hexdigest() == metrics_sha


def test_attach_requires_a_fresh_runtime():
    """The occupancy means cover ``[0, last change]``, so attaching
    after the clock has moved is refused, as the trace recorder does."""
    from repro.workloads.catalog import CATALOG, build

    built = build(CATALOG["mc-roundtrip"])
    built.run()
    with pytest.raises(ValueError, match="before the runtime's first run"):
        attach(built.runtime)


def test_fast_disk_arm_max_counts_zero_length_holds():
    """Fast-disk arms are held for zero simulated seconds, so each hold
    starts and ends at one instant.  The peak still sees it: every arm
    that served a request renders ``_max`` 1."""
    from repro.workloads.catalog import CATALOG, build

    built = build(CATALOG["full-storm"])
    registry = attach(built.runtime)
    built.run()
    values = _rendered(registry)
    disks = [fs.disk for fs in built.runtime.filesystems]
    assert any(d.requests for d in disks)
    for i, disk in enumerate(disks):
        if disk.requests:
            assert values[f'panda_disk_arm_in_use_max{{disk="{i}"}}'] == "1"


def test_prometheus_render_format(fig3_point):
    result, _report, registry = fig3_point
    observe_trace(result.trace, registry)
    text = registry.render()
    lines = text.strip().splitlines()
    assert lines, "empty metrics snapshot"
    for line in lines:
        if line.startswith("#"):
            assert line.startswith(("# HELP ", "# TYPE "))
            continue
        name_part, value = line.rsplit(" ", 1)
        assert name_part
        float(value)  # parses
    # histogram invariants: bucket counts are cumulative, +Inf == count
    assert 'panda_disk_service_seconds_bucket{op="disk_read",le="+Inf"}' in text


def test_histogram_cumulative_buckets(fig3_point):
    result, _report, _reg = fig3_point
    reg = observe_trace(result.trace)
    h = reg.histogram("panda_disk_service_seconds", op="disk_read")
    assert h.count > 0
    assert h.counts == sorted(h.counts)
    assert h.counts[-1] <= h.count
    assert math.isfinite(h.sum)


def test_histogram_bisect_matches_linear_scan():
    """The O(log n) bisect ``observe`` is observation-for-observation
    equivalent to the old linear scan (inclusive ``value <= le``),
    including values exactly on bucket boundaries."""
    import random

    def linear_counts(buckets, values):
        counts = [0] * len(buckets)
        for v in values:
            for i, le in enumerate(buckets):
                if v <= le:
                    counts[i] += 1
        return counts

    rng = random.Random(17)
    values = [rng.uniform(0.0, 2.0 * DURATION_BUCKETS[-1])
              for _ in range(500)]
    # exact boundaries, just-below, just-above, and out-of-range extremes
    for le in DURATION_BUCKETS:
        values += [le, le - 1e-12, le + 1e-12]
    values += [0.0, -1.0, 1e9]

    h = Histogram()
    for v in values:
        h.observe(v)
    assert h.counts == linear_counts(h.buckets, values)
    assert h.count == len(values)
    assert h.sum == pytest.approx(sum(values))
    # counts are cumulative and capped by the total
    assert h.counts == sorted(h.counts)
    assert h.counts[-1] <= h.count


def test_counter_rejects_decrease():
    reg = MetricsRegistry()
    c = reg.counter("x_total")
    with pytest.raises(ValueError):
        c.inc(-1)
    # same name+labels returns the same child; conflicting type raises
    assert reg.counter("x_total") is c
    with pytest.raises(TypeError):
        reg.gauge("x_total")


def test_each_scheduled_run_draws_its_ops_on_their_own_tracks():
    """``admit_seq`` is unique for the runtime's lifetime, not per run:
    a runtime that runs twice under a scheduler exports the second
    run's ops on new tracks under their own names, instead of drawing
    them on the first run's tracks (a thread keeps its first-seen
    name)."""
    import numpy as np

    from repro.core import (
        Array,
        ArrayGroup,
        ArrayLayout,
        BLOCK,
        PandaConfig,
        PandaRuntime,
        SchedulerConfig,
    )

    arr = Array("a", (32,), np.float64, ArrayLayout("m", (2,)), [BLOCK])
    ag = ArrayGroup("ag")
    ag.include(arr)

    def app(ctx, *names):
        ctx.bind(arr)
        for name in names:
            yield from ag.write(ctx, name)

    rt = PandaRuntime(
        n_compute=2, n_io=2,
        config=PandaConfig(scheduler=SchedulerConfig(policy="fifo")),
        trace=True,
    )
    rt.run(app, "first", "second")
    rt.run(app, "third", "fourth")
    events = to_chrome_trace(rt.trace)["traceEvents"]
    sched_pid = next(ev["pid"] for ev in events if ev["ph"] == "M"
                     and ev["args"]["name"] == "scheduler")
    tracks = sorted(ev["args"]["name"] for ev in events
                    if ev["ph"] == "M" and ev["name"] == "thread_name"
                    and ev["pid"] == sched_pid)
    assert tracks == ["op0 first", "op1 second", "op2 third", "op3 fourth"]


def test_sharded_sched_metrics_carry_shard_label():
    """A sharded run's scheduler records carry their admitting shard,
    and :func:`observe_trace` turns it into a ``shard`` label, so queue
    depth and admission latency break out per shard master.  (Single-
    master traces have no shard key; their label sets are covered by
    the render tests above.)"""
    import numpy as np

    from repro.core import (
        Array,
        ArrayGroup,
        ArrayLayout,
        BLOCK,
        PandaConfig,
        PandaRuntime,
        SchedulerConfig,
    )
    from repro.core.scheduler import ShardMap

    n_groups, n_shards = 4, 2
    assignments = []
    for g in range(n_groups):
        mem = ArrayLayout(f"m{g}", (1,))
        arr = Array(f"g{g}", (32,), np.float64, mem, [BLOCK])
        ag = ArrayGroup(f"ag{g}")
        ag.include(arr)

        def app(ctx, ag=ag, arr=arr, name=f"g{g}"):
            ctx.bind(arr)
            yield from ag.write(ctx, name)

        assignments.append((app, (g,)))
    rt = PandaRuntime(
        n_compute=n_groups, n_io=2,
        config=PandaConfig(scheduler=SchedulerConfig(
            policy="fifo", n_shards=n_shards)),
        trace=True,
    )
    rt.run_partitioned(assignments)
    reg = observe_trace(rt.trace)
    ring = ShardMap(n_shards)
    owners = {str(ring.owner(f"g{g}")) for g in range(n_groups)}
    assert len(owners) == n_shards, "scenario must load every shard"
    for shard in owners:
        depth = reg.histogram("panda_sched_queue_depth",
                              op="sched_enqueue", shard=shard)
        wait = reg.histogram("panda_sched_queue_wait_seconds",
                             op="sched_admit", shard=shard)
        assert depth.count > 0
        assert wait.count > 0
