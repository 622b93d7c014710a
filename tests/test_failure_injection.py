"""Failure injection: the runtime must surface application and protocol
failures as the original exceptions, never as hangs or silent
corruption."""

import numpy as np
import pytest

from repro.core import (Array, ArrayGroup, ArrayLayout, BLOCK, NONE,
                        PandaConfig, PandaRuntime, SchedulerConfig)
from repro.core.runtime import RunAborted
from repro.faults import FaultSpec
from repro.mpi import LivelockError
from repro.sim import Interrupt, SimulationError
from repro.workloads import distribute, make_global_array, write_array_app


def simple_array(n=2, shape=(8,)):
    mem = ArrayLayout("mem", (n,))
    return Array("a", shape, np.float64, mem, [BLOCK])


def group_of(arr):
    g = ArrayGroup("g")
    g.include(arr)
    return g


def test_app_crash_before_any_collective():
    def app(ctx):
        if ctx.rank == 1:
            raise RuntimeError("rank 1 died on startup")
        yield from ctx.compute(0.001)

    rt = PandaRuntime(n_compute=2, n_io=1)
    with pytest.raises(RuntimeError, match="rank 1 died"):
        rt.run(app)


def test_app_crash_on_one_rank_mid_collective():
    """A rank that dies *inside* a collective strands its peers in
    recv; the runtime surfaces the root cause, not the deadlock."""
    arr = simple_array()
    grp = group_of(arr)

    def app(ctx):
        ctx.bind(arr)
        if ctx.rank == 1:
            raise ValueError("rank 1 corrupted")
        yield from grp.write(ctx, "x")

    rt = PandaRuntime(n_compute=2, n_io=1)
    with pytest.raises(ValueError, match="rank 1 corrupted"):
        rt.run(app)


def test_app_crash_between_collectives():
    arr = simple_array()
    grp = group_of(arr)

    def app(ctx):
        ctx.bind(arr)
        yield from grp.write(ctx, "x")
        if ctx.rank == 0:
            raise OSError("lost node after first write")
        yield from grp.write(ctx, "y")

    rt = PandaRuntime(n_compute=2, n_io=1)
    with pytest.raises(OSError, match="lost node"):
        rt.run(app)
    # the first collective still committed
    assert "x" in rt.catalog


def test_runtime_usable_after_app_failure():
    """A failed run must not poison the runtime: servers were shut
    down, and a fresh run on the same runtime works."""
    arr = simple_array()
    grp = group_of(arr)

    def bad(ctx):
        raise RuntimeError("nope")
        yield

    def good(ctx):
        ctx.bind(arr)
        yield from grp.write(ctx, "ok")

    rt = PandaRuntime(n_compute=2, n_io=1)
    with pytest.raises(RuntimeError):
        rt.run(bad)
    rt.run(good)
    assert "ok" in rt.catalog


def test_runtime_usable_after_regrouping():
    """Op serials are counted per rank but keyed per group: ranks that
    ran different op counts in separate groups join one group later."""
    solo = Array("s", (8,), np.float64, ArrayLayout("mem", (1,)), [BLOCK])
    solo_grp = group_of(solo)
    arr = simple_array()
    grp = group_of(arr)

    def writes(n):
        def app(ctx):
            ctx.bind(solo)
            for i in range(n):
                yield from solo_grp.write(ctx, f"solo{ctx.rank}.{i}")
        return app

    def together(ctx):
        ctx.bind(arr)
        yield from grp.write(ctx, "together")

    rt = PandaRuntime(n_compute=2, n_io=1)
    rt.run_partitioned([(writes(1), (0,)), (writes(2), (1,))])
    res = rt.run(together)
    assert [o.dataset for o in res.ops] == ["together"]


def test_runtime_usable_after_mid_collective_failure():
    """Rank 1 dies between a write and a read, stranding rank 0 in the
    read: the next run on the same runtime starts clean."""
    arr = simple_array()
    grp = group_of(arr)

    def bad(ctx):
        ctx.bind(arr)
        yield from grp.write(ctx, "x")
        if ctx.rank == 1:
            raise ValueError("rank 1 died")
        yield from grp.read(ctx, "x")

    def good(ctx):
        ctx.bind(arr)
        yield from grp.write(ctx, "ok")
        yield from grp.read(ctx, "ok")

    rt = PandaRuntime(n_compute=2, n_io=1)
    with pytest.raises(ValueError, match="rank 1 died"):
        rt.run(bad)
    res = rt.run(good)
    assert [(o.kind, o.dataset) for o in res.ops] == [("write", "ok"),
                                                      ("read", "ok")]
    assert all(len(m) == 0 and not m._getters for m in rt.network.mailboxes)


# -- teardown: a failed rank stops the whole run -------------------------------
#
# Every scheduler x fault setting x failure point, on a 2-rank app over
# 4 I/O nodes.  Before the teardown, the 8 sharded configs with faults
# spun forever: rank 0's completion wait polled a live shard master
# that no client would ever feed again.

SWEEP_SCHEDULERS = {
    "unscheduled": None,
    "fifo": SchedulerConfig(policy="fifo"),
    "slo": SchedulerConfig(policy="slo"),
    "fifo-2shards": SchedulerConfig(policy="fifo", n_shards=2),
    "fair-3shards": SchedulerConfig(policy="fair", n_shards=3),
}
SWEEP_FAULTS = {
    "no-faults": None,
    "drops": FaultSpec(seed=1, msg_drop_rate=0.01),
    "drops+crash": FaultSpec(seed=1, msg_drop_rate=0.01,
                             crashes=((3, 0.002),)),
}


@pytest.mark.parametrize("when", ["before-first-op", "between-ops"])
@pytest.mark.parametrize("faults", sorted(SWEEP_FAULTS))
@pytest.mark.parametrize("scheduler", list(SWEEP_SCHEDULERS))
def test_failed_rank_tears_the_run_down(scheduler, faults, when):
    arr = Array("a", (16, 16), np.float64, ArrayLayout("mem", (2,)),
                [BLOCK, NONE])
    grp = group_of(arr)
    seen = {}

    def app(ctx):
        ctx.bind(arr)
        if ctx.rank == 1:
            if when == "between-ops":
                yield from grp.write(ctx, "x")
            raise ValueError("rank 1 failed")
        try:
            yield from grp.write(ctx, "x")
            yield from grp.read(ctx, "x")
        except Interrupt as stop:
            seen["cause"] = stop.cause
            raise

    rt = PandaRuntime(n_compute=2, n_io=4, config=PandaConfig(
        sub_chunk_bytes=512, scheduler=SWEEP_SCHEDULERS[scheduler],
        faults=SWEEP_FAULTS[faults]))
    with pytest.raises(ValueError, match="rank 1 failed") as info:
        rt.run(app)
    chain = [info.value]
    while chain[-1].__cause__ is not None:
        chain.append(chain[-1].__cause__)
    assert not any(isinstance(e, LivelockError) for e in chain), chain
    assert rt.sim.now < 2.0
    cause = seen["cause"]
    assert isinstance(cause, RunAborted)
    assert cause.rank == 1 and cause.exc is info.value


def test_bind_wrong_shape_rejected():
    arr = simple_array()

    def app(ctx):
        ctx.bind(arr, np.zeros(7))
        yield

    rt = PandaRuntime(n_compute=2, n_io=1)
    with pytest.raises(ValueError, match="shape"):
        rt.run(app)


def test_bind_wrong_dtype_rejected():
    arr = simple_array()

    def app(ctx):
        ctx.bind(arr, np.zeros(4, dtype=np.float32))
        yield

    rt = PandaRuntime(n_compute=2, n_io=1)
    with pytest.raises(ValueError, match="dtype"):
        rt.run(app)


def test_bind_real_data_in_virtual_mode_rejected():
    arr = simple_array()

    def app(ctx):
        ctx.bind(arr, np.zeros(4))
        yield

    rt = PandaRuntime(n_compute=2, n_io=1, real_payloads=False)
    with pytest.raises(ValueError, match="virtual"):
        rt.run(app)


def test_local_of_unbound_array_raises():
    arr = simple_array()

    def app(ctx):
        ctx.local(arr)
        yield

    rt = PandaRuntime(n_compute=2, n_io=1)
    with pytest.raises(KeyError, match="not bound"):
        rt.run(app)


def test_collective_count_mismatch_hangs_are_detected():
    """Rank 1 skips a collective the others perform -- a classic SPMD
    bug.  The run must fail (deadlock detection), not hang."""
    arr = simple_array()
    grp = group_of(arr)

    def app(ctx):
        ctx.bind(arr)
        if ctx.rank == 0:
            yield from grp.write(ctx, "x")
        # rank 1 returns immediately

    rt = PandaRuntime(n_compute=2, n_io=1)
    with pytest.raises(SimulationError, match="deadlock"):
        rt.run(app)


def test_reading_dataset_written_by_other_runtime_fails():
    arr = simple_array()
    grp = group_of(arr)

    def reader(ctx):
        ctx.bind(arr)
        yield from grp.read(ctx, "never-written")

    rt = PandaRuntime(n_compute=2, n_io=1)
    with pytest.raises(FileNotFoundError):
        rt.run(reader)


def test_group_mesh_larger_than_group_rejected():
    mem = ArrayLayout("mem", (4,))
    arr = Array("a", (8,), np.float64, mem, [BLOCK])
    grp = group_of(arr)

    def app(ctx):
        ctx.bind(arr)
        yield from grp.write(ctx, "x")

    rt = PandaRuntime(n_compute=2, n_io=1)
    with pytest.raises(ValueError, match="client group"):
        rt.run(app)


def test_overwrite_dataset_with_new_schema_is_allowed():
    """Re-writing a dataset replaces it -- the catalog updates and a
    subsequent read uses the new layout."""
    g = make_global_array((8,))
    mem = ArrayLayout("mem", (2,))
    disk1 = ArrayLayout("d1", (1,))
    disk2 = ArrayLayout("d2", (2,))
    a1 = Array("a", (8,), np.float64, mem, [BLOCK], disk1, [BLOCK])
    a2 = Array("a", (8,), np.float64, mem, [BLOCK], disk2, [BLOCK])
    data = {"a": distribute(g, a1.memory_schema)}
    rt = PandaRuntime(n_compute=2, n_io=2)
    rt.run(write_array_app([a1], "ds", data))
    rt.run(write_array_app([a2], "ds", data))
    assert rt.catalog["ds"].arrays[0].disk_schema == a2.disk_schema


def test_client_rank_outside_group_rejected():
    from repro.core.client import PandaClient

    rt = PandaRuntime(n_compute=4, n_io=1)
    with pytest.raises(ValueError, match="not in its own client group"):
        PandaClient(rt, 0, rt.network.comm(0), {}, group_ranks=(1, 2))
