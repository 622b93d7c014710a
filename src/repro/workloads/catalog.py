"""The scenario catalogue: every named workload, built once.

The paper drives Panda through a handful of workload shapes -- single-
and multi-array writes and reads under natural and traditional disk
schemas, and the timestep, checkpoint and restart operations built on
them.  This module states each shape once, as a *family*: a frozen
parameter dataclass plus one builder.

- :class:`RoundtripParams` -- one array written then read back by one
  SPMD group (:func:`~repro.workloads.apps.write_read_roundtrip_app`);
- :class:`WriterGroupsParams` -- disjoint client groups, each writing
  its own array to shared I/O nodes through the inter-op scheduler;
- :class:`TenantsParams` -- single-rank tenants, one private 8 KB
  write each (:func:`tenant_array`);
- :class:`SLOContentionParams` -- heavy streamers against small
  under-budget tenants, the ``slo`` policy's enforcement workload;
- :class:`StormParams` -- the checkpoint-restart storm;
- :class:`ShardedFaultParams` -- two groups' write-modify-write-read
  under a shard-master crash and message faults.

:func:`build` turns a spec into a :class:`Built`: the runtime and its
``(app, ranks)`` assignments, constructed but not run (no simulated
time passes).  Instrumentation belongs to the consumer, attached
between build and run: the model checker installs its schedule
controller, ``replay record`` a :class:`~repro.replay.TraceRecorder`,
and each bench just runs the result and reduces it.

:data:`CATALOG` names every scenario a consumer runs by name; each
consumer (mc, replay, the storm bench) picks its entries from it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.api import Array, ArrayGroup, ArrayLayout
from repro.core.config import PandaConfig
from repro.core.protocol import OpRejected
from repro.core.runtime import PandaRuntime, RunResult
from repro.core.scheduler import POLICIES, SchedulerConfig
from repro.faults import FaultSpec
from repro.machine import NAS_SP2, MachineSpec, sp2
from repro.obs.slo import SLOBudget
from repro.schema.distribution import BLOCK, NONE
from repro.workloads.apps import write_read_roundtrip_app
from repro.workloads.arrays import distribute, make_global_array

__all__ = [
    "CATALOG",
    "DATASET_SHAPE",
    "N_DISK_CHUNKS",
    "SCALE_SPEC_OVERRIDES",
    "Built",
    "RoundtripParams",
    "SLOContentionParams",
    "ShardedFaultParams",
    "Spec",
    "StormParams",
    "TenantsParams",
    "WriterGroupsParams",
    "build",
    "scale_spec",
    "tenant_array",
]

#: one tenant's dataset: 1024 float64 = 8 KB.
DATASET_SHAPE = (1024,)
#: disk chunks per tenant dataset: eight 1 KB chunks, living on servers
#: 0..7 (chunk *i* -> server ``i % n_io``), so the data plane stays
#: constant while ``n_io`` and ``n_shards`` scale.  A storm checkpoint
#: has as many, or one per element if it is smaller.
N_DISK_CHUNKS = 8

#: departures from the 1995 Table-1 constants for the many-tenant
#: workloads, so they probe the admission plane rather than a 3 MB/s
#: disk of thirty years ago:
#:
#: - ``fast_disk`` -- data-transfer time is zero (the paper's own
#:   infinitely-fast-disk methodology); protocol + network costs remain.
#: - ``plan_formation_overhead=2e-4`` -- 0.2 ms per plan instead of the
#:   SP2's 11 ms; at 11 ms a single master saturates at ~90 ops/s and
#:   every configuration is plan-formation-bound, which hides the
#:   queueing behaviour under test.
SCALE_SPEC_OVERRIDES: Dict[str, object] = {
    "fast_disk": True,
    "plan_formation_overhead": 2e-4,
}


def scale_spec(n_tenants: int, n_io: int) -> MachineSpec:
    """The many-tenant machine: SP2 interconnect, the overrides above,
    and enough nodes for one rank per tenant."""
    return sp2(total_nodes=n_tenants + n_io, **SCALE_SPEC_OVERRIDES)


#: ``(app, ranks)`` pairs for :meth:`PandaRuntime.run_partitioned`.
Assignments = List[Tuple[Callable, Tuple[int, ...]]]


@dataclass
class Built:
    """A scenario constructed but not yet run, plus the client-side
    outcomes its apps record while running."""

    runtime: PandaRuntime
    assignments: Assignments = field(default_factory=list)
    #: client-visible :class:`OpRejected` count per rank.
    rejections: Dict[int, int] = field(default_factory=dict)
    #: storms: checkpoints given up after ``max_attempts`` sheds.
    gave_up: List[str] = field(default_factory=list)
    #: storms, real payloads: restart reads whose bytes mismatched.
    corrupt: List[str] = field(default_factory=list)

    def run(self) -> RunResult:
        return self.runtime.run_partitioned(self.assignments)


def _dists(ndim: int, mesh: Tuple[int, ...]) -> List[object]:
    """BLOCK over the mesh's leading dimensions, whole (NONE) after."""
    return [BLOCK] * len(mesh) + [NONE] * (ndim - len(mesh))


# -- roundtrip ------------------------------------------------------------


@dataclass(frozen=True)
class RoundtripParams:
    """One array ``rt-arr`` written then read back as dataset
    ``rt-data`` by ``prod(mem_mesh)`` compute ranks."""

    shape: Tuple[int, ...] = (32, 24)
    mem_mesh: Tuple[int, ...] = (2, 2)
    #: disk mesh of a reorganizing disk schema; None keeps the natural
    #: (memory) chunking on disk.
    disk_mesh: Optional[Tuple[int, ...]] = None
    n_io: int = 2
    sub_chunk_bytes: Optional[int] = None
    scheduler: Optional[SchedulerConfig] = None
    faults: Optional[FaultSpec] = None
    real_payloads: bool = True
    spec: MachineSpec = NAS_SP2


def _build_roundtrip(p: RoundtripParams) -> Built:
    ndim = len(p.shape)
    disk, disk_dist = None, None
    if p.disk_mesh is not None:
        disk = ArrayLayout("rt-disk", p.disk_mesh)
        disk_dist = _dists(ndim, p.disk_mesh)
    arr = Array("rt-arr", p.shape, np.float64,
                ArrayLayout("rt-mem", p.mem_mesh), _dists(ndim, p.mem_mesh),
                disk, disk_dist, sub_chunk_bytes=p.sub_chunk_bytes)
    runtime = PandaRuntime(
        n_compute=math.prod(p.mem_mesh), n_io=p.n_io, spec=p.spec,
        config=PandaConfig(scheduler=p.scheduler, faults=p.faults),
        real_payloads=p.real_payloads,
    )
    data = None
    if p.real_payloads:
        data = {arr.name: distribute(make_global_array(p.shape, seed=11),
                                     arr.memory_schema)}
    app = write_read_roundtrip_app([arr], "rt-data", data)
    return Built(runtime, [(app, tuple(range(runtime.n_compute)))])


# -- writer groups ---------------------------------------------------------


@dataclass(frozen=True)
class WriterGroupsParams:
    """``n_apps`` disjoint client groups (``n_compute`` split evenly),
    group *i* collectively writing its own array ``app<i>`` to the
    shared I/O nodes.  Group *i* computes ``i * stagger`` seconds first,
    so REQUEST arrival order is causal rather than a dispatch-order
    coincidence."""

    #: scheduling policy; None is the paper's head-of-line discipline.
    policy: Optional[str] = "fifo"
    n_apps: int = 4
    n_compute: int = 8
    n_io: int = 4
    #: every group's array (the default is 16 MB of float64).
    shape: Tuple[int, ...] = (128, 128, 128)
    #: fair-share weight per group (default all 1).
    priorities: Optional[Tuple[int, ...]] = None
    #: execution slots; None is one per group.
    max_in_flight: Optional[int] = None
    stagger: float = 0.0
    n_shards: int = 1
    #: each group's memory mesh; None is ``(group size,)``.
    mem_mesh: Optional[Tuple[int, ...]] = None


def _build_writer_groups(p: WriterGroupsParams) -> Built:
    if p.n_apps < 1 or p.n_compute % p.n_apps:
        raise ValueError(
            f"n_compute={p.n_compute} must be a multiple of n_apps={p.n_apps}"
        )
    priorities = p.priorities or (1,) * p.n_apps
    if len(priorities) != p.n_apps:
        raise ValueError("need one priority per app")
    sched = None
    if p.policy is not None:
        sched = SchedulerConfig(
            policy=p.policy, max_in_flight=p.max_in_flight or p.n_apps,
            queue_limit=16, n_shards=p.n_shards,
        )
    runtime = PandaRuntime(
        n_compute=p.n_compute, n_io=p.n_io,
        config=PandaConfig(scheduler=sched), real_payloads=False,
    )
    size = p.n_compute // p.n_apps
    mesh = p.mem_mesh or (size,)

    def writer_app(i: int) -> Callable:
        name = f"app{i}"
        arr = Array(name, p.shape, np.float64, ArrayLayout(f"{name}-mem", mesh),
                    _dists(len(p.shape), mesh))
        group = ArrayGroup(name)
        group.include(arr)

        def app(ctx):
            ctx.bind(arr)
            if p.stagger:
                yield from ctx.compute(i * p.stagger)
            yield from group.write(ctx, name, priority=priorities[i])
        return app

    return Built(runtime, [
        (writer_app(i), tuple(range(i * size, (i + 1) * size)))
        for i in range(p.n_apps)
    ])


# -- single-rank tenants ---------------------------------------------------


def tenant_array() -> Tuple[ArrayGroup, Array]:
    """The one 8 KB tenant schema every tenant shares (one plan-cache
    entry), in :data:`N_DISK_CHUNKS` disk chunks."""
    arr = Array("tenant", DATASET_SHAPE, np.float64,
                ArrayLayout("tenant-mem", (1,)), [BLOCK],
                ArrayLayout("tenant-disk", (N_DISK_CHUNKS,)), [BLOCK])
    group = ArrayGroup("tenant")
    group.include(arr)
    return group, arr


@dataclass(frozen=True)
class TenantsParams:
    """``n_ops`` single-rank tenants, tenant *i* writing dataset ``d<i>``
    after ``i`` ms (1000 arrivals per second), on the
    :data:`SCALE_SPEC_OVERRIDES` machine under the ``fair`` policy.
    Each shard master runs 8 ops at a time; the queue holds every
    tenant, so admission is measured, never load-shed."""

    n_ops: int
    n_io: int
    n_shards: int = 1


def _build_tenants(p: TenantsParams) -> Built:
    group, arr = tenant_array()

    def tenant_app(i: int) -> Callable:
        def app(ctx):
            ctx.bind(arr)
            yield from ctx.compute(i * 1e-3)
            yield from group.write(ctx, f"d{i}")
        return app

    sched = SchedulerConfig(policy="fair", max_in_flight=8,
                            queue_limit=p.n_ops + 1, n_shards=p.n_shards)
    runtime = PandaRuntime(
        n_compute=p.n_ops, n_io=p.n_io, spec=scale_spec(p.n_ops, p.n_io),
        config=PandaConfig(scheduler=sched), real_payloads=False,
    )
    return Built(runtime, [(tenant_app(i), (i,)) for i in range(p.n_ops)])


# -- SLO contention --------------------------------------------------------


@dataclass(frozen=True)
class SLOContentionParams:
    """``n_heavy`` tenants stream 2 MB writes (``h<i>``) back-to-back
    from t=0; ``n_small`` tenants arrive at t=9 s and write 8 KB
    (``s<j>``) every 2 s.  A heavy write shed with :class:`OpRejected`
    is counted, backed off and retried.  Two ops run at a time; the
    ``slo`` policy gets a ``budget_s`` p99 turnaround budget."""

    policy: str = "slo"
    n_small: int = 6
    n_heavy: int = 8
    small_ops: int = 6
    heavy_ops: int = 8
    n_io: int = 4
    budget_s: float = 1.2


def _build_slo_contention(p: SLOContentionParams) -> Built:
    # one disk chunk for the small array: on these *slow* disks each
    # chunk pays the per-request overhead, and a small op must stay
    # cheap (~60 ms) for "under budget" to be its natural state
    small = Array("slo-small", DATASET_SHAPE, np.float64,
                  ArrayLayout("slo-small-mem", (1,)), [BLOCK],
                  ArrayLayout("slo-small-disk", (1,)), [BLOCK])
    sgroup = ArrayGroup("slo-small")
    sgroup.include(small)
    # 256 x 1024 float64 = 2 MB striped over the I/O nodes: at the SP2's
    # 3 MB/s disks one write blows a sub-second budget
    heavy = Array("slo-heavy", (256, 1024), np.float64,
                  ArrayLayout("slo-heavy-mem", (1,)), [BLOCK, NONE],
                  ArrayLayout("slo-heavy-disk", (p.n_io,)), [BLOCK, NONE])
    hgroup = ArrayGroup("slo-heavy")
    hgroup.include(heavy)
    n_ranks = p.n_heavy + p.n_small
    sched = SchedulerConfig(
        policy=p.policy, max_in_flight=2, queue_limit=n_ranks + 2,
        slo=SLOBudget(turnaround_p99=p.budget_s) if p.policy == "slo" else None,
    )
    built = Built(PandaRuntime(
        n_compute=n_ranks, n_io=p.n_io,
        spec=sp2(total_nodes=n_ranks + p.n_io, plan_formation_overhead=2e-4),
        config=PandaConfig(scheduler=sched), real_payloads=False,
    ), rejections={i: 0 for i in range(p.n_heavy)})

    def heavy_app(i: int) -> Callable:
        def app(ctx):
            ctx.bind(heavy)
            yield from ctx.compute(i * 1e-3)
            for _ in range(p.heavy_ops):
                try:
                    yield from hgroup.write(ctx, f"h{i}")
                except OpRejected:
                    built.rejections[i] += 1
                    yield from ctx.compute(0.4)
        return app

    def small_app(j: int) -> Callable:
        def app(ctx):
            ctx.bind(small)
            yield from ctx.compute(9.0 + j * 1e-2)
            for _ in range(p.small_ops):
                yield from sgroup.write(ctx, f"s{j}")
                yield from ctx.compute(2.0)
        return app

    built.assignments = [(heavy_app(i), (i,)) for i in range(p.n_heavy)]
    built.assignments += [(small_app(j), (p.n_heavy + j,))
                          for j in range(p.n_small)]
    return built


# -- checkpoint-restart storm ----------------------------------------------


#: a storm's admission queue bound, per shard master.
_STORM_QUEUE_LIMIT = 32


@dataclass(frozen=True)
class StormParams:
    """One storm, fully determined (every field is a stimulus)."""

    n_tenants: int = 16
    n_io: int = 4
    n_shards: int = 1
    policy: str = "fair"
    #: checkpoint rounds (each round is one coordinated burst).
    rounds: int = 2
    #: seconds between coordinated checkpoint deadlines.
    deadline: float = 0.5
    #: arrival spread within a round, as a fraction of ``deadline``:
    #: 0 is a perfectly aligned thundering herd.
    burst_skew: float = 0.25
    #: every k-th tenant restart-reads the previous round's checkpoint.
    restart_every: int = 4
    #: per-tenant checkpoint size, float64 elements.
    elements: int = 1024
    #: size multipliers cycled over tenants (``(1,)`` = uniform sizes;
    #: ``(1, 2, 8)`` mixes small and heavy checkpoints so size-aware
    #: policies actually reorder the herd).
    size_classes: tuple = (1,)
    max_in_flight: int = 4
    #: shed retries before a tenant gives its checkpoint up.
    max_attempts: int = 5
    #: backoff after a shed, seconds (scaled by the attempt number).
    retry_backoff: float = 0.25
    seed: int = 0
    slo: Optional[SLOBudget] = None
    faults: Optional[FaultSpec] = None
    real_payloads: bool = True

    def __post_init__(self) -> None:
        if self.n_tenants < 1 or self.rounds < 1:
            raise ValueError("need at least one tenant and one round")
        if not 0.0 <= self.burst_skew <= 1.0:
            raise ValueError("burst_skew must be in [0, 1]")
        if self.restart_every < 1:
            raise ValueError("restart_every must be >= 1")
        if not self.size_classes or any(
                not isinstance(m, int) or m < 1 for m in self.size_classes):
            raise ValueError("size_classes must be positive int multipliers")


def _tenant_elements(params: StormParams, tenant: int) -> int:
    """Tenant ``tenant``'s checkpoint size in float64 elements (the base
    size scaled by the tenant's cycled size class)."""
    return params.elements * params.size_classes[
        tenant % len(params.size_classes)]


def _payload(params: StormParams, tenant: int, rnd: int) -> np.ndarray:
    """Tenant ``tenant``'s round-``rnd`` checkpoint bytes (pure function
    of the storm seed, so restart reads verify byte-exactly)."""
    rng = np.random.default_rng(
        (params.seed * 100003 + tenant * 1009 + rnd) & 0x7FFFFFFF
    )
    return rng.standard_normal(_tenant_elements(params, tenant))


def _arrivals(params: StormParams) -> List[List[float]]:
    """``[tenant][round] -> arrival instant`` (seeded jitter around each
    round's deadline)."""
    out = []
    for i in range(params.n_tenants):
        rng = random.Random(params.seed * 10007 + i)
        out.append([
            r * params.deadline
            + params.burst_skew * params.deadline * rng.random()
            for r in range(params.rounds)
        ])
    return out


def _build_storm(params: StormParams) -> Built:
    sched = SchedulerConfig(
        policy=params.policy, max_in_flight=params.max_in_flight,
        queue_limit=_STORM_QUEUE_LIMIT, n_shards=params.n_shards,
        slo=params.slo,
    )
    built = Built(PandaRuntime(
        n_compute=params.n_tenants, n_io=params.n_io,
        spec=sp2(total_nodes=params.n_tenants + params.n_io,
                 fast_disk=True, plan_formation_overhead=2e-4),
        config=PandaConfig(scheduler=sched, faults=params.faults),
        real_payloads=params.real_payloads,
    ), rejections={i: 0 for i in range(params.n_tenants)})
    arrivals = _arrivals(params)
    mem = ArrayLayout("storm-mem", (1,))
    disk = ArrayLayout("storm-disk", (min(N_DISK_CHUNKS, params.elements),))

    def tenant_app(i: int) -> Callable:
        arr = Array(f"ckpt{i}", (_tenant_elements(params, i),), np.float64,
                    mem, [BLOCK], disk, [BLOCK])
        spec = arr.spec()
        priority = 1 + i % 3  # mixed-priority tenants exercise fair share

        def collective_with_retry(ctx, kind: str, dataset: str):
            for attempt in range(params.max_attempts):
                try:
                    yield from ctx.panda.collective(
                        kind, (spec,), dataset, priority=priority
                    )
                    return True
                except OpRejected:
                    built.rejections[i] += 1
                    yield from ctx.compute(
                        params.retry_backoff * (attempt + 1)
                    )
            built.gave_up.append(dataset)
            return False

        def app(ctx):
            buf = ctx.bind(arr)
            t_start = ctx.sim.now
            for r in range(params.rounds):
                dt = t_start + arrivals[i][r] - ctx.sim.now
                if dt > 0:
                    yield from ctx.compute(dt)
                if buf is not None:
                    buf[:] = _payload(params, i, r)
                yield from collective_with_retry(ctx, "write", f"ckpt{i}.r{r}")
                if r > 0 and i % params.restart_every == 0:
                    # restart read of the previous checkpoint, riding
                    # the same storm as recovery traffic would
                    read = yield from collective_with_retry(
                        ctx, "read", f"ckpt{i}.r{r - 1}"
                    )
                    if (read and buf is not None
                            and not np.array_equal(
                                buf, _payload(params, i, r - 1))):
                        built.corrupt.append(f"ckpt{i}.r{r - 1}")

        return app

    built.assignments = [(tenant_app(i), (i,))
                         for i in range(params.n_tenants)]
    return built


# -- sharded fault ---------------------------------------------------------


@dataclass(frozen=True)
class ShardedFaultParams:
    """Two 2-rank groups on 4 I/O nodes, each writing its 16x16 array
    ``sf<g>``, modifying it in place, rewriting and reading it back --
    under 2 admission shards (``fair``), 5% message drops, 10% delays
    and a crash of I/O node 1 at t=4 ms."""


def _build_sharded_fault(_p: ShardedFaultParams) -> Built:
    sched = SchedulerConfig(policy="fair", max_in_flight=2, queue_limit=4,
                            n_shards=2)
    faults = FaultSpec(seed=3, msg_drop_rate=0.05, msg_delay_rate=0.1,
                       crashes=((1, 0.004),))
    runtime = PandaRuntime(
        n_compute=4, n_io=4,
        config=PandaConfig(scheduler=sched, faults=faults),
        real_payloads=True,
    )

    def group_app(g: int) -> Callable:
        name = f"sf{g}"
        arr = Array(name, (16, 16), np.float64,
                    ArrayLayout(f"{name}-mem", (2,)), [BLOCK, NONE],
                    ArrayLayout(f"{name}-disk", (4,)), [BLOCK, NONE],
                    sub_chunk_bytes=512)
        group = ArrayGroup(name)
        group.include(arr)
        data = distribute(make_global_array((16, 16), seed=100 + g),
                          arr.memory_schema)

        def app(ctx):
            ctx.bind(arr, data[ctx.group_index].copy())
            yield from group.write(ctx, name)
            local = ctx.local(arr)
            if local.size:
                local += 1.0
            yield from group.write(ctx, name)
            yield from group.read(ctx, name)
        return app

    return Built(runtime, [(group_app(0), (0, 1)), (group_app(1), (2, 3))])


# -- build + the catalogue -------------------------------------------------

Spec = Union[RoundtripParams, WriterGroupsParams, TenantsParams,
             SLOContentionParams, StormParams, ShardedFaultParams]

_BUILDERS: Dict[type, Callable[..., Built]] = {
    RoundtripParams: _build_roundtrip,
    WriterGroupsParams: _build_writer_groups,
    TenantsParams: _build_tenants,
    SLOContentionParams: _build_slo_contention,
    StormParams: _build_storm,
    ShardedFaultParams: _build_sharded_fault,
}


def build(spec: Spec) -> Built:
    """Construct ``spec``'s runtime and assignments without running
    them: ``build(spec).run()`` runs the scenario once."""
    return _BUILDERS[type(spec)](spec)


#: the contended checkpoint herd: simultaneous arrivals (zero skew),
#: mixed checkpoint sizes so size-aware policies have something to
#: reorder, and an admission pipe narrow enough that the queue is deep
#: when the burst lands.
_CONTENDED_STORM = StormParams(
    n_tenants=8, n_io=2, policy="fifo", rounds=4, deadline=0.5,
    burst_skew=0.0, elements=4096, size_classes=(1, 2, 8),
    max_in_flight=2, seed=3,
)

CATALOG: Dict[str, Spec] = {
    # the model checker's full-size traffic shapes: roundtrips over
    # natural and reorganizing schemas, concurrent scheduled writes
    # under every policy and sharded admission, SLO enforcement, and
    # the fault paths
    "natural-roundtrip": RoundtripParams(),
    "reorg-roundtrip": RoundtripParams(disk_mesh=(4,), real_payloads=False),
    **{f"sched-{policy}": WriterGroupsParams(
        policy=policy, n_io=2, max_in_flight=2, stagger=1e-3)
       for policy in POLICIES},
    **{f"sched-sharded-{k}": WriterGroupsParams(
        policy="fair", n_io=4, max_in_flight=2, stagger=1e-3, n_shards=k)
       for k in (2, 4)},
    "slo-enforce": SLOContentionParams(
        n_heavy=4, heavy_ops=8, n_small=2, small_ops=3, n_io=2,
        budget_s=0.8),
    "faulty-roundtrip": RoundtripParams(faults=FaultSpec(
        seed=42, msg_drop_rate=0.05, msg_delay_rate=0.05,
        disk_fault_rate=0.02)),
    "crash-recovery": RoundtripParams(
        faults=FaultSpec(seed=42, crashes=((1, 0.004),))),
    # the model checker's small set: the same shapes, small enough for
    # a sub-second exhaustive sweep
    "mc-roundtrip": RoundtripParams(shape=(8, 6)),
    **{f"mc-sched-{policy}": WriterGroupsParams(
        policy=policy, n_compute=4, n_io=1, max_in_flight=2, stagger=1e-3)
       for policy in ("fifo", "sjf", "fair")},
    "mc-sharded-2": WriterGroupsParams(
        policy="fair", n_compute=4, n_io=2, max_in_flight=2, stagger=1e-3,
        n_shards=2),
    # the replay golden corpus (tests/traces/<name>.json)
    "roundtrip": RoundtripParams(
        shape=(16, 16), mem_mesh=(4,), disk_mesh=(2,), sub_chunk_bytes=512,
        scheduler=SchedulerConfig(policy="fifo"), spec=sp2(total_nodes=6)),
    "sharded-fault": ShardedFaultParams(),
    # a fault-free herd against an exhausted budget: plenty of sheds
    "slo-shed": StormParams(
        n_tenants=8, n_io=2, policy="slo", rounds=4, deadline=0.25,
        burst_skew=0.0, elements=256, seed=2, max_in_flight=2,
        max_attempts=3, retry_backoff=0.05,
        slo=SLOBudget(turnaround_p99=2e-3, window=16, min_history=2,
                      shed_factor=1.5)),
    # the acceptance combo: 2 admission shards, a shard-master crash at
    # t=0.51 s (mid round 2), message faults and a budget tight enough
    # to shed, in one capture; small payloads keep the golden ~100 KB
    "storm-small": StormParams(
        n_tenants=6, n_io=4, n_shards=2, policy="slo", rounds=4,
        deadline=0.25, burst_skew=0.1, elements=256, seed=5,
        max_in_flight=2, max_attempts=3, retry_backoff=0.05,
        slo=SLOBudget(turnaround_p99=4e-3, window=16, min_history=2,
                      shed_factor=1.5),
        faults=FaultSpec(seed=7, msg_drop_rate=0.05, msg_delay_rate=0.1,
                         crashes=((1, 0.51),))),
    # the storm bench's herd; the full point doubles the rounds and
    # quadruples the payload (per-tenant history is what the slo
    # policy's demotions feed on; adding tenants instead re-aligns the
    # demoted set with arrival order and the reordering washes out)
    "contended-storm": _CONTENDED_STORM,
    "full-storm": replace(_CONTENDED_STORM, rounds=8, elements=16384),
}
