"""Sharded admission under a mid-queue shard-master crash.

The single-master fault suite (test_scheduler_faults) assumes the
admitting master survives, as the paper does.  Sharding breaks that
assumption for every master but shard 0: here server 2 -- the shard
master owning datasets g0 and g2 under ``ShardMap(3)`` -- crashes at
t=0.004 s with the admission queues still holding most of the 12 ops.
The ring re-partitions its datasets onto the surviving masters (g0 ->
shard 1, g2 -> shard 0, verified against the map), the affected master
clients detect the crash at their completion-wait timeout and re-send
their REQUESTs to the new owners, executors abort orphaned work the
dead master admitted, and -- since server 2 also held a quarter of
every striped array -- the ordinary data-plane recovery relocates its
plan portions onto the survivors.  Reads at the end of each group's
script must return every byte the rewrites stored.
"""

import numpy as np
import pytest

from repro.core import (
    Array,
    ArrayGroup,
    ArrayLayout,
    BLOCK,
    NONE,
    PandaConfig,
    PandaRuntime,
    SchedulerConfig,
)
from repro.core.scheduler import POLICIES, ShardMap
from repro.faults import FaultSpec
from repro.workloads import distribute, make_global_array

N_COMPUTE = 8
N_IO = 4
N_SHARDS = 3
SHAPE = (32, 32)
SUB_CHUNK = 1024      # 8 sub-chunks per op: real mid-op interleaving
N_GROUPS = 4
GROUP = N_COMPUTE // N_GROUPS
CRASHED = 2           # a shard master (shard 0 stays the reliable root)
CRASH_T = 0.004


def make_arrays(g: int):
    """Stripe every dataset over all four I/O nodes so the crashed
    master also holds a quarter of the data: the run exercises owner
    failover and data-plane recovery together."""
    mem = ArrayLayout(f"mem{g}", (GROUP,))
    disk = ArrayLayout(f"disk{g}", (N_IO,))
    arr = Array(f"g{g}", SHAPE, np.float64, mem, [BLOCK, NONE],
                disk, [BLOCK, NONE], sub_chunk_bytes=SUB_CHUNK)
    ag = ArrayGroup(f"ag{g}")
    ag.include(arr)
    return ag, arr


def workload_app(g: int, data):
    """Write, mutate + rewrite, read back: the queue holds a mix of
    kinds -- across all three shards -- when the crash lands."""
    ag, arr = make_arrays(g)

    def app(ctx):
        ctx.bind(arr, data[ctx.group_index].copy())
        yield from ag.write(ctx, f"g{g}")
        local = ctx.local(arr)
        if local.size:
            local += 1.0
        yield from ag.write(ctx, f"g{g}")
        yield from ag.read(ctx, f"g{g}")

    return app


def group_ranks(g: int):
    return tuple(range(g * GROUP, (g + 1) * GROUP))


def run_stress(policy: str):
    sched = SchedulerConfig(policy=policy, max_in_flight=2, queue_limit=4,
                            n_shards=N_SHARDS)
    spec = FaultSpec(seed=3, crashes=((CRASHED, CRASH_T),))
    rt = PandaRuntime(n_compute=N_COMPUTE, n_io=N_IO,
                      config=PandaConfig(scheduler=sched, faults=spec),
                      real_payloads=True, trace=True)
    datas = {}
    assignments = []
    for g in range(N_GROUPS):
        _, arr = make_arrays(g)
        datas[g] = distribute(make_global_array(SHAPE, seed=100 + g),
                              arr.memory_schema)
        assignments.append((workload_app(g, datas[g]), group_ranks(g)))
    result = rt.run_partitioned(assignments)
    return rt, result, datas


def check_readback(rt: PandaRuntime, datas) -> None:
    for g in range(N_GROUPS):
        for gi, rank in enumerate(group_ranks(g)):
            np.testing.assert_array_equal(
                rt._client_state[rank]["data"][f"g{g}"],
                datas[g][gi] + 1.0,
                err_msg=f"group {g} rank {rank}: read-back diverges",
            )


def completed_keys(stats):
    """(dataset, kind, op_id) of every op that completed somewhere.  A
    crashed master's records for ops it enqueued but never finished
    stay open; the re-issued op completes under a fresh admit_seq at
    the new owner, so identity is the op, not the admission."""
    return {(r.dataset, r.kind, r.op_id)
            for r in stats.ops if r.completed is not None}


@pytest.mark.parametrize("policy", POLICIES)
def test_shard_master_crash_every_op_completes_or_reroutes(policy):
    ring = ShardMap(N_SHARDS)
    # precondition for the scenario: the crashed master owns datasets
    owned = [f"g{g}" for g in range(N_GROUPS)
             if ring.owner(f"g{g}") == CRASHED]
    assert owned, "scenario needs datasets owned by the crashed shard"

    rt, result, datas = run_stress(policy)
    stats = rt.sched_stats
    assert stats is not None and stats.n_shards == N_SHARDS
    # 4 groups x (write, rewrite, read): every op completed somewhere
    assert len(completed_keys(stats)) == 3 * N_GROUPS
    assert result.counters["server_crashes"] == 1
    # admissions continued on the surviving masters after the crash
    assert any(r.admitted > CRASH_T for r in stats.ops
               if r.completed is not None)
    # every op served after the crash ran at the ring's post-crash
    # owner for its dataset (admit_seq % n_shards is the serving shard)
    live = {s for s in range(N_SHARDS) if s != CRASHED}
    for r in stats.ops:
        if r.completed is not None and r.arrived > CRASH_T:
            assert r.admit_seq % N_SHARDS == ring.owner(r.dataset, live), (
                f"op {r.admit_seq} on {r.dataset!r} served by the wrong "
                "post-crash owner"
            )
    # the crashed node's data-plane portion was relocated
    for g in range(N_GROUPS):
        assert CRASHED in rt.relocations[f"g{g}"]
    # the same-run reads returned what the rewrites stored
    check_readback(rt, datas)


def test_owner_failover_is_observable():
    """The crash strands queued/running ops at the dead master: the
    affected master clients must re-send their REQUESTs (traced as
    cli_request_retry and counted as fault retries), and the new
    owners' completions must carry the new shard in their residue."""
    rt, result, _datas = run_stress("fair")
    retries = [rec for rec in rt.trace.records
               if rec.kind == "cli_request_retry"]
    assert retries, "no master client re-routed its REQUEST"
    ring = ShardMap(N_SHARDS)
    live = {s for s in range(N_SHARDS) if s != CRASHED}
    for rec in retries:
        assert rec["owner_rank"] != rt.server_rank(CRASHED)
    assert result.counters["fault_retries"] >= len(retries)
    # the re-routed datasets were exactly the crashed shard's slice
    rerouted = {rec["op_id"] for rec in retries}
    assert rerouted
    owned = {f"g{g}" for g in range(N_GROUPS)
             if ring.owner(f"g{g}") == CRASHED}
    done_after = {r.dataset for r in rt.sched_stats.ops
                  if r.completed is not None and r.arrived > CRASH_T}
    assert owned <= done_after


def test_stress_run_is_deterministic():
    keys = ("server_crashes", "recoveries", "faults_injected",
            "fault_retries")
    fingerprints = []
    for _ in range(2):
        rt, result, _datas = run_stress("sjf")
        fingerprints.append((
            sorted((r.admit_seq, r.dataset, r.kind, r.arrived, r.admitted,
                    r.completed) for r in rt.sched_stats.ops
                   if r.completed is not None),
            {k: result.counters[k] for k in keys},
        ))
    assert fingerprints[0] == fingerprints[1]


# -- every shard master dead: the typed dead-end -----------------------------

def test_all_masters_dead_surfaces_clean_failure():
    """Kill *both* shard masters mid-queue (index 0 included -- legal
    only under a sharded scheduler): the ring has no live shard left,
    so the owner lookup raises the typed
    :class:`NoLiveShardError` and the client retry path converts it
    into a clean :class:`FaultRecoveryError` naming the dataset,
    instead of the bare ValueError it used to die with."""
    from repro.core.scheduler import NoLiveShardError  # noqa: F401
    from repro.faults import FaultRecoveryError

    n_shards = 2
    sched = SchedulerConfig(policy="fair", max_in_flight=2, queue_limit=4,
                            n_shards=n_shards)
    spec = FaultSpec(seed=5, crashes=((0, CRASH_T), (1, CRASH_T)))
    rt = PandaRuntime(n_compute=N_COMPUTE, n_io=N_IO,
                      config=PandaConfig(scheduler=sched, faults=spec),
                      real_payloads=True, trace=True)
    assignments = []
    for g in range(N_GROUPS):
        _, arr = make_arrays(g)
        data = distribute(make_global_array(SHAPE, seed=100 + g),
                          arr.memory_schema)
        assignments.append((workload_app(g, data), group_ranks(g)))
    with pytest.raises(FaultRecoveryError, match="every shard master"):
        rt.run_partitioned(assignments)
    # the dead end was traced on the client that hit it
    marks = [rec for rec in rt.trace.records
             if rec.kind == "cli_no_live_shard"]
    assert marks
    assert all(rec["dataset"].startswith("g") for rec in marks)
    assert rt.crashed_servers == {0, 1}


def test_allow_master_crash_needs_shards():
    """Server 0 may crash only when another shard master can take over:
    a single-master runtime refuses the schedule."""
    spec = FaultSpec(crashes=((0, CRASH_T),))
    with pytest.raises(ValueError,
                       match=r"master server .* sharded scheduler"):
        PandaRuntime(n_compute=2, n_io=2,
                     config=PandaConfig(faults=spec), real_payloads=True)
