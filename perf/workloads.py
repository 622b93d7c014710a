"""The seven benchmark workloads: input generators, timed calls, checks.

Each workload is a function ``run(rec, size, seed, canary)`` that
builds its inputs (from ``seed`` where it has random input), drives the
library through public entry points inside :class:`Recorder` spans, and
checks the outputs.  Only public names of ``repro.core``, ``repro.obs``,
``repro.replay``, ``repro.workloads``, ``repro.machine``, ``repro.faults``
and ``repro.counters`` are imported -- never ``repro.bench``,
``repro.analysis`` or ``repro.cli``, which the roadmap plans to collapse.

``wall_s`` is the sum of the *timed* spans (kinds ``run``, ``replay``,
``serde``, ``analyze``, ``export``).  Priming writes, obs-off passes and
byte comparisons run in untimed spans (``prime``, ``obs_off``,
``verify``) between them.
"""

from __future__ import annotations

import base64
import json
import time
import zlib
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.core import (
    BLOCK,
    NONE,
    Array,
    ArrayGroup,
    ArrayLayout,
    PandaConfig,
    PandaRuntime,
    SchedulerConfig,
)
from repro.counters import COUNTERS
from repro.faults import FaultSpec
from repro.machine import NAS_SP2, sp2
from repro.obs import MetricsRegistry, analyze, attach, to_chrome_trace
from repro.obs.slo import SLOBudget, quantile
from repro.replay import TraceRecorder, WorkloadTrace, replay
from repro.workloads import (
    StormParams,
    distribute,
    make_global_array,
    mesh_for,
    read_array_app,
    run_storm,
    write_array_app,
)

TIMED_KINDS = ("run", "replay", "serde", "analyze", "export")


class Recorder:
    """Spans, exact counts and check results of one repetition."""

    def __init__(self, profiler=None) -> None:
        #: a cProfile.Profile switched on for the timed spans only, so
        #: the traced round attributes the same window wall_s covers
        self.profiler = profiler
        self.spans: List[Dict[str, Any]] = []
        self._open: List[int] = []
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.counters = dict.fromkeys(COUNTERS.snapshot(), 0)
        self.sim_elapsed: List[float] = []
        self.ops_completed = 0
        self.queue_peak = 0
        self.demoted = 0
        self.shed = 0
        self.waits: List[float] = []
        self.trace_records = 0
        self.trace_bytes = 0

    # -- spans ------------------------------------------------------------
    @contextmanager
    def span(self, name: str, kind: str):
        index = len(self.spans)
        entry = {"name": name, "kind": kind, "start": time.monotonic(),
                 "end": None, "parent": self._open[-1] if self._open else None}
        self.spans.append(entry)
        self._open.append(index)
        profiled = self.profiler is not None and kind in TIMED_KINDS
        if profiled:
            self.profiler.enable()
        try:
            yield entry
        finally:
            if profiled:
                self.profiler.disable()
            entry["end"] = time.monotonic()
            self._open.pop()

    def run(self, name: str, runtime: PandaRuntime, call: Callable[[], Any],
            kind: str = "run"):
        """Time one ``runtime.run``/``run_partitioned`` call and, after
        the span closes, add its exact counts to the repetition's."""
        with self.span(name, kind):
            result = call()
        if kind in TIMED_KINDS:
            self.harvest(result, runtime, runtime.sched_stats)
        return result

    def harvest(self, result, runtime, stats) -> None:
        for key, value in result.counters.items():
            self.counters[key] += value
        self.sim_elapsed.append(result.elapsed)
        self.ops_completed += len(result.ops)
        if stats is not None:
            self.queue_peak = max(self.queue_peak, stats.queue_peak)
            self.waits += [r.queue_wait for r in stats.completed_ops()]
        for tracker in runtime.slo_trackers.values():
            self.demoted += tracker.total_demoted
            self.shed += tracker.total_shed

    # -- checks -----------------------------------------------------------
    def count(self, attempted: int, failed: int, message: str) -> None:
        """``failed`` of ``attempted`` operations failed."""
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.failures) < 10:
            self.failures.append(message)

    def check(self, ok: bool, message: str, weight: int = 1) -> None:
        """``weight`` operations were attempted; all fail if not ok."""
        self.count(weight, 0 if ok else weight, message)


def _guard(rec: Recorder, label: str, weight: int, body: Callable[..., None], *args) -> None:
    """Run one point; an exception fails its ``weight`` operations
    instead of the whole repetition."""
    before = rec.attempted, rec.failed
    try:
        body(*args)
    except Exception as exc:  # a raised operation is a counted failure
        rec.attempted, rec.failed = before
        rec.check(False, f"{label}: raised {exc!r}", weight)


# -- the paper's figure grids (Figs 7 and 8) ---------------------------------

#: 3-D float64 shapes totalling the given MB (doubling one dimension
#: doubles the size), as the paper's 16-512 MB sweep.
FIGURE_SHAPES = {
    16: (128, 128, 128), 32: (128, 128, 256), 64: (128, 256, 256),
    128: (256, 256, 256), 256: (256, 256, 512), 512: (256, 512, 512),
}
FIGURE_COMPUTE = 32
#: the paper's 68-95% of peak AIX band, with the slack the repository's
#: own figure gates use.
FIGURE_BAND = (0.68 - 0.08, 0.95 + 0.04)


def _figure_array(n_io: int, size_mb: int) -> Array:
    mem = ArrayLayout("mem", mesh_for(FIGURE_COMPUTE))
    disk = ArrayLayout("disk", (n_io,))
    return Array("a", FIGURE_SHAPES[size_mb], np.float64, mem, [BLOCK] * 3,
                 disk, [BLOCK, NONE, NONE])


def _figure_runtime(n_io: int, trace: bool = False) -> PandaRuntime:
    return PandaRuntime(FIGURE_COMPUTE, n_io, spec=NAS_SP2,
                        real_payloads=False, trace=trace)


def _in_band(op, n_io: int, peak: float) -> bool:
    lo, hi = FIGURE_BAND
    return lo <= op.throughput / n_io / peak <= hi


def _figure_grid(size: Dict[str, Any], figure: str):
    for size_mb in size["sizes_mb"]:
        for n_io in size["ionodes"]:
            yield f"{figure}[{size_mb}MB,{n_io}io]", size_mb, n_io


def fig8_write_trad(rec: Recorder, size: Dict[str, Any], seed: int,
                    canary: Optional[str]) -> None:
    def point(label: str, size_mb: int, n_io: int) -> None:
        array = _figure_array(n_io, size_mb)
        runtime = _figure_runtime(n_io)
        result = rec.run(label, runtime,
                         lambda: runtime.run(write_array_app([array], "bench")))
        rec.check(_in_band(result.op(), n_io, NAS_SP2.fs_write_peak),
                  f"{label}: normalised throughput outside the band")

    for label, size_mb, n_io in _figure_grid(size, "fig8"):
        _guard(rec, label, 1, point, label, size_mb, n_io)


def fig7_read_trad(rec: Recorder, size: Dict[str, Any], seed: int,
                   canary: Optional[str]) -> None:
    def point(label: str, size_mb: int, n_io: int) -> None:
        array = _figure_array(n_io, size_mb)
        runtime = _figure_runtime(n_io)
        rec.run(f"{label}.prime", runtime,
                lambda: runtime.run(write_array_app([array], "bench")), kind="prime")
        ok = True
        for k in range(size["reads"]):
            result = rec.run(f"{label}.read{k}", runtime,
                             lambda: runtime.run(read_array_app([array], "bench")))
            ok = ok and _in_band(result.op(), n_io, NAS_SP2.fs_read_peak)
        rec.check(ok, f"{label}: normalised throughput outside the band")

    for label, size_mb, n_io in _figure_grid(size, "fig7"):
        _guard(rec, label, 1, point, label, size_mb, n_io)


# -- many single-rank tenants on a sharded admission plane -------------------

TENANT_ELEMENTS = 1024  # one tenant's dataset: 1024 float64 = 8 KB
TENANT_DISK_CHUNKS = 8
#: the scale sweep's machine: SP2 interconnect, infinitely fast disk and
#: 0.2 ms plan formation, so admission rather than a 1995 disk is probed.
TENANT_SPEC = {"fast_disk": True, "plan_formation_overhead": 2e-4}
TENANT_STAGGER = 1e-3  # 1000 ops/s simulated arrivals


def _tenant_group(name: str):
    mem = ArrayLayout(f"{name}-mem", (1,))
    disk = ArrayLayout(f"{name}-disk", (TENANT_DISK_CHUNKS,))
    array = Array(name, (TENANT_ELEMENTS,), np.float64, mem, [BLOCK], disk, [BLOCK])
    group = ArrayGroup(name)
    group.include(array)
    return group, array


def _tenants_runtime(n_ops: int, n_io: int, n_shards: int,
                     trace: bool = False) -> PandaRuntime:
    sched = SchedulerConfig(policy="fair", max_in_flight=8,
                            queue_limit=n_ops + 1, n_shards=n_shards)
    return PandaRuntime(
        n_compute=n_ops, n_io=n_io,
        spec=sp2(total_nodes=n_ops + n_io, **TENANT_SPEC),
        config=PandaConfig(scheduler=sched), real_payloads=False, trace=trace,
    )


def _tenant_assignments(n_ops: int):
    group, array = _tenant_group("tenant")

    def tenant(i: int):
        def app(ctx):
            ctx.bind(array)
            yield from ctx.compute(i * TENANT_STAGGER)
            yield from group.write(ctx, f"d{i}")
        return app

    return [(tenant(i), (i,)) for i in range(n_ops)]


def tenants_sharded(rec: Recorder, size: Dict[str, Any], seed: int,
                    canary: Optional[str]) -> None:
    n_ops = size["tenants"]
    expected = {f"d{i}" for i in range(n_ops)}
    if canary == "drop_tenant":
        expected.discard("d0")
    runtime = _tenants_runtime(n_ops, size["n_io"], size["n_shards"])
    assignments = _tenant_assignments(n_ops)
    rec.run("tenants", runtime, lambda: runtime.run_partitioned(assignments))
    with rec.span("verify", "verify"):
        done = {r.dataset for r in runtime.sched_stats.completed_ops()}
        wrong = sorted(expected ^ done)
        rec.count(n_ops, len(wrong),
                  f"tenants: completed set differs from expected at {wrong[:5]}")


# -- timestep output with real bytes -----------------------------------------

def timestep_real(rec: Recorder, size: Dict[str, Any], seed: int,
                  canary: Optional[str]) -> None:
    shape = tuple(size["shape"])
    per_run = size["steps_per_run"]
    n_compute, n_io = 8, 4
    mem = ArrayLayout("mem", mesh_for(n_compute))
    disk = ArrayLayout("disk", (n_io,))
    arrays = [
        Array("trad", shape, np.float64, mem, [BLOCK] * 3, disk, [BLOCK, NONE, NONE]),
        Array("natural", shape, np.float64, mem, [BLOCK] * 3),
    ]
    group = ArrayGroup("sim")
    base = {}
    for k, array in enumerate(arrays):
        group.include(array)
        base[array.name] = distribute(
            make_global_array(shape, seed=seed * 2 + k), array.memory_schema)
    runtime = PandaRuntime(n_compute, n_io, spec=NAS_SP2, real_payloads=True)
    held: Dict[int, Dict[str, np.ndarray]] = {}

    def steps_app(first: int):
        """``per_run`` timestep writes alternating two datasets, then a
        read-back of the last one into poisoned buffers."""
        def app(ctx):
            bufs = {a.name: ctx.bind(a) for a in arrays}
            for step in range(first, first + per_run):
                for name, buf in bufs.items():
                    np.add(base[name][ctx.group_index], step, out=buf)
                yield from group.write(ctx, f"sim.t{step % 2}")
            for buf in bufs.values():
                buf.fill(-1.0)
            yield from group.read(ctx, f"sim.t{(first + per_run - 1) % 2}")
            held[ctx.group_index] = bufs
        return app

    def one_run(label: str, k: int) -> None:
        result = rec.run(label, runtime, lambda: runtime.run(steps_app(k * per_run)))
        with rec.span(f"{label}.verify", "verify"):
            rec.check(len(result.ops) == per_run + 1,
                      f"{label}: {len(result.ops)} of {per_run + 1} collectives completed",
                      per_run + 1)
            last = (k + 1) * per_run - 1
            if canary == "corrupt_readback" and k == 0:
                held[0][arrays[0].name].flat[0] += 1.0
            for array in arrays:
                same = all(
                    np.array_equal(held[i][array.name], base[array.name][i] + last)
                    for i in range(n_compute))
                rec.check(same, f"{label}: read-back of {array.name!r} differs")

    for k in range(size["runs"]):
        label = f"steps[{k * per_run}..{(k + 1) * per_run - 1}]"
        _guard(rec, label, per_run + 1 + len(arrays), one_run, label, k)


# -- soak with failover: scheduler x shards x faults x SLO -------------------

SOAK_WRITE_PHASE = 30.0  # seconds into each cycle at which the write storm starts
SOAK_CYCLE_SPAN = 300.0
SOAK_POISON = -1.0


def _soak_pattern(seed: int, tenant: int, cycle: int) -> np.ndarray:
    """Unique per (seed, tenant, cycle), so a stale or misrouted
    read-back cannot pass."""
    offset = float(seed * 7919 + tenant * 100003 + cycle * 1009)
    return offset + np.arange(TENANT_ELEMENTS, dtype=np.float64)


def _soak_victims(n_io: int, n_shards: int, cycles: int) -> Dict[int, int]:
    """cycle -> server to kill mid-storm: the first and last cycle stay
    clean; the others alternate data nodes and shard masters (never
    index 0)."""
    masters = list(range(1, n_shards))
    data_nodes = list(range(n_shards, n_io))
    plan = {}
    for k, cycle in enumerate(range(1, cycles - 1)):
        pool = masters if k % 2 else data_nodes
        plan[cycle] = pool[(k // 2) % len(pool)]
    return plan


def soak_failover(rec: Recorder, size: Dict[str, Any], seed: int,
                  canary: Optional[str]) -> None:
    n_tenants, n_io, n_shards, cycles = (
        size["tenants"], size["n_io"], size["n_shards"], size["cycles"])
    group, array = _tenant_group("soak")
    sched = SchedulerConfig(
        policy="slo", max_in_flight=8, queue_limit=2 * n_tenants + 2,
        n_shards=n_shards, slo=SLOBudget(turnaround_p99=60.0),
    )
    faults = FaultSpec(seed=seed, msg_drop_rate=0.01, msg_delay_rate=0.05,
                       disk_fault_rate=0.01)
    runtime = PandaRuntime(
        n_compute=n_tenants, n_io=n_io,
        spec=sp2(total_nodes=n_tenants + n_io, **TENANT_SPEC),
        config=PandaConfig(scheduler=sched, faults=faults), real_payloads=True,
    )
    victims = _soak_victims(n_io, n_shards, cycles)
    t_crash = SOAK_WRITE_PHASE + max(0.01, 0.5 * n_tenants * TENANT_STAGGER)

    def cycle_app(i: int, cycle: int, clean: bool, readback, tail):
        """Tenant ``i``'s cycle: verify-read last cycle's bytes, rewrite,
        and on clean cycles re-read this cycle's own write (a crash
        cycle may leave them on the dead node until the reboot)."""
        def app(ctx):
            start = ctx.sim.now

            def pad_until(target: float):
                dt = start + target - ctx.sim.now
                if dt > 0:
                    yield from ctx.compute(dt)

            data = _soak_pattern(seed, i, cycle)
            buf = ctx.bind(array, data.copy())
            if cycle > 0:
                yield from pad_until(i * TENANT_STAGGER)
                buf[:] = SOAK_POISON
                yield from group.read(ctx, f"d{i}")
                readback[i] = buf.copy()
                buf[:] = data
            yield from pad_until(SOAK_WRITE_PHASE + i * TENANT_STAGGER)
            yield from group.write(ctx, f"d{i}")
            if clean:
                yield from pad_until(SOAK_CYCLE_SPAN - SOAK_WRITE_PHASE + i * TENANT_STAGGER)
                buf[:] = SOAK_POISON
                yield from group.read(ctx, f"d{i}")
                tail[i] = buf.copy()
            yield from pad_until(SOAK_CYCLE_SPAN)
        return app

    def one_cycle(label: str, cycle: int, clean: bool, expected_ops: int) -> None:
        runtime.reschedule_crashes([] if clean else [(victims[cycle], t_crash)])
        readback: Dict[int, np.ndarray] = {}
        tail: Dict[int, np.ndarray] = {}
        assignments = [(cycle_app(i, cycle, clean, readback, tail), (i,))
                       for i in range(n_tenants)]
        result = rec.run(label, runtime, lambda: runtime.run_partitioned(assignments))
        with rec.span(f"{label}.verify", "verify"):
            missing = max(0, expected_ops - len(result.ops))
            rec.count(expected_ops, missing, f"{label}: {missing} collectives incomplete")
            compare = [(readback, cycle - 1)] if cycle > 0 else []
            if clean:
                compare.append((tail, cycle))
            for got, want_cycle in compare:
                for i in range(n_tenants):
                    same = i in got and np.array_equal(
                        got[i], _soak_pattern(seed, i, want_cycle))
                    rec.check(same, f"{label}: tenant {i} read-back of cycle "
                                    f"{want_cycle} differs")

    for cycle in range(cycles):
        clean = cycle not in victims
        reads = (cycle > 0) + clean
        _guard(rec, f"cycle{cycle}", n_tenants * (1 + 2 * reads), one_cycle,
               f"cycle{cycle}", cycle, clean, n_tenants * (1 + reads))


# -- storm capture, serialisation and differential replay --------------------

def _flip_payload_byte(trace: WorkloadTrace) -> None:
    """Canary: flip one byte of the payload some rank wrote last, so its
    final stored bytes -- and the stored digest -- must differ."""
    events = trace.doc["runs"][0]["events"]
    for rank in sorted(events, key=int):
        last = events[rank][-1]
        if last["type"] == "op" and last["kind"] == "write" and last.get("payload"):
            sha = next(iter(last["payload"].values()))
            raw = bytearray(zlib.decompress(base64.b64decode(trace.doc["payloads"][sha])))
            raw[0] ^= 0x01
            trace.doc["payloads"][sha] = base64.b64encode(
                zlib.compress(bytes(raw), 6)).decode("ascii")
            return
    raise RuntimeError("no rank ends on a write: nothing to corrupt")


def storm_replay(rec: Recorder, size: Dict[str, Any], seed: int,
                 canary: Optional[str]) -> None:
    params = StormParams(
        n_tenants=size["tenants"], n_io=2, policy="fifo", rounds=size["rounds"],
        deadline=0.5, burst_skew=0.0, elements=size["elements"],
        size_classes=(1, 2, 8), max_in_flight=2, seed=seed,
    )
    holder = {}

    def attach_recorder(runtime: PandaRuntime) -> None:
        holder["recorder"] = TraceRecorder(runtime, name="perf-storm")

    with rec.span("capture", "run"):
        report = run_storm(params, runtime_hook=attach_recorder)
    capture_stats = report.runtime.sched_stats
    rec.harvest(report.result, report.runtime, capture_stats)
    n_ops = report.metrics["ops_completed"]
    rec.check(not report.gave_up and not report.corrupt,
              f"capture: gave up {report.gave_up}, corrupt {report.corrupt}", n_ops)

    captured = holder["recorder"].trace()
    with rec.span("dumps", "serde"):
        text = captured.dumps()
    rec.trace_bytes = len(text)
    with rec.span("loads", "serde"):
        trace = WorkloadTrace.loads(text)
    if canary == "flip_payload":
        _flip_payload_byte(trace)

    # the slo replay's budget: median of the capture's per-tenant p99s,
    # so half the herd is demoted; nothing is ever shed
    per_tenant: Dict[str, List[float]] = {}
    for r in capture_stats.completed_ops():
        per_tenant.setdefault(r.dataset.split(".")[0], []).append(r.turnaround)
    p99s = sorted(quantile(sorted(ts), 0.99) for ts in per_tenant.values())
    budget = SLOBudget(turnaround_p99=quantile(p99s, 0.5), window=16,
                       min_history=2, shed_factor=1e9)

    def one_replay(label: str, policy: str) -> None:
        with rec.span(label, "replay"):
            if policy == "fifo":
                outcome = replay(trace)
            else:
                outcome = replay(trace, policy_override=policy,
                                 slo_override=budget if policy == "slo" else None)
        rec.harvest(outcome.results[0], outcome.runtime, outcome.run_stats[0])
        ok = (outcome.stored == trace.expect["stored"]
              and len(outcome.results[0].ops) == n_ops)
        if policy == "fifo":  # same policy as the capture: must be bit-exact
            ok = ok and bool(outcome.ok)
        rec.check(ok, f"{label}: replay differs from the capture "
                      f"({outcome.mismatches[:2]})", n_ops)

    for policy in ("fifo", "sjf", "fair", "slo"):
        _guard(rec, f"replay[{policy}]", n_ops, one_replay, f"replay[{policy}]", policy)


# -- the cost of watching: obs-off vs obs-on, analysis and export ------------

def observed_mix(rec: Recorder, size: Dict[str, Any], seed: int,
                 canary: Optional[str]) -> None:
    def observed(label: str, weight: int, make_runtime, call, figure: bool) -> None:
        """One point, run obs-off then obs-on, then exported.  A figure
        point is first run once untimed so that both passes find the
        process-wide plan and geometry memos equally warm (the tenant
        point has one geometry; a miss costs it nothing), and its timed
        window is analysed."""
        if figure:
            cold = make_runtime(False)
            with rec.span(f"{label}.prime", "prime"):
                call(cold)
        plain = make_runtime(False)
        off = rec.run(f"{label}.obs_off", plain, lambda: call(plain), kind="obs_off")
        watched = make_runtime(True)
        attach(watched, MetricsRegistry())
        on = rec.run(f"{label}.obs_on", watched, lambda: call(watched))
        rec.trace_records += len(on.trace)
        if figure:
            with rec.span(f"{label}.analyze", "analyze"):
                t_end = watched.sim.now
                analyze(on.trace, t0=t_end - on.elapsed, t_end=t_end)
        with rec.span(f"{label}.export", "export"):
            text = json.dumps(to_chrome_trace(on.trace))
        with rec.span(f"{label}.verify", "verify"):
            try:
                exported = len(json.loads(text)["traceEvents"]) > 0
            except (ValueError, KeyError, TypeError):
                exported = False
            want = {(o.dataset, o.op_id): o.elapsed for o in off.ops}
            got = {(o.dataset, o.op_id): o.elapsed for o in on.ops}
            same = off.elapsed == on.elapsed and want == got and len(want) == weight
            rec.check(exported and same,
                      f"{label}: export valid: {exported}; simulated time with observation "
                      f"on {on.elapsed!r}, off {off.elapsed!r}", weight)

    for n_io in size["ionodes"]:
        label = f"fig8[{size['size_mb']}MB,{n_io}io]"
        array = _figure_array(n_io, size["size_mb"])
        _guard(rec, label, 1, observed, label, 1,
               lambda trace, n_io=n_io: _figure_runtime(n_io, trace=trace),
               lambda rt, array=array: rt.run(write_array_app([array], "bench")), True)

    n_ops = size["tenants"]
    assignments = _tenant_assignments(n_ops)
    _guard(rec, "tenants", n_ops, observed, "tenants", n_ops,
           lambda trace: _tenants_runtime(n_ops, size["n_io"], size["n_shards"], trace=trace),
           lambda rt: rt.run_partitioned(assignments), False)


#: workload name -> its function; the names, reasons and input sizes
#: live in ``inputs.py``, which the driver can read without importing
#: the library.
RUNNERS = {
    "fig8_write_trad": fig8_write_trad,
    "fig7_read_trad": fig7_read_trad,
    "tenants_sharded": tenants_sharded,
    "timestep_real": timestep_real,
    "soak_failover": soak_failover,
    "storm_replay": storm_replay,
    "observed_mix": observed_mix,
}
