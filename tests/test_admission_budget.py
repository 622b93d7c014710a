"""The admission plane's host budget, as exact call counts.

DESIGN.md section 13 budgets what admitting one REQUEST may cost the
host: everything that depends only on the op's *shape* (arrays, kind,
striping width, machine, sub-chunk size) is derived once per shape, not
once per op.  The counts below are taken with wrapping monkeypatches on
a 40-tenant sharded run, so a per-op plan walk or ``.schema`` encode
that creeps back in fails as a count, on any host, rather than as a
timing.
"""

import numpy as np

from repro.bench.profiling import clear_caches
from repro.core import (
    Array,
    ArrayGroup,
    ArrayLayout,
    BLOCK,
    PandaConfig,
    PandaRuntime,
    SchedulerConfig,
)
from repro.core import costmodel, server
from repro.core.plan import op_participants
from repro.core.protocol import CollectiveOp
from repro.schema.chunking import DataSchema

N_TENANTS, N_IO, N_SHARDS = 40, 8, 2


def _counting(monkeypatch, owner, name, calls):
    """Wrap ``owner.name`` so that every call appends to ``calls``."""
    inner = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)


def test_admission_derives_shape_work_once_per_shape(monkeypatch):
    mem = ArrayLayout("tenant-mem", (1,))
    disk = ArrayLayout("tenant-disk", (8,))
    array = Array("tenant", (1024,), np.float64, mem, [BLOCK], disk, [BLOCK])
    group = ArrayGroup("tenant")
    group.include(array)

    def tenant(i):
        def app(ctx):
            ctx.bind(array)
            yield from ctx.compute(i * 1e-3)
            yield from group.write(ctx, f"d{i}")
        return app

    config = PandaConfig(scheduler=SchedulerConfig(
        policy="fair", max_in_flight=8, queue_limit=N_TENANTS + 1,
        n_shards=N_SHARDS))
    runtime = PandaRuntime(N_TENANTS, N_IO, config=config,
                           real_payloads=False)

    walk_plans, server_plans, describes = [], [], []
    _counting(monkeypatch, costmodel, "build_server_plan", walk_plans)
    _counting(monkeypatch, server, "build_server_plan", server_plans)
    _counting(monkeypatch, DataSchema, "describe", describes)
    clear_caches()
    runtime.run_partitioned([(tenant(i), (i,)) for i in range(N_TENANTS)])

    assert len(runtime.sched_stats.completed_ops()) == N_TENANTS
    shapes = 1  # every tenant writes the same array: one (shape, kind)

    # the cost model walks every server's plan once per (shape, kind)
    assert len(walk_plans) <= N_IO * shapes
    # a server forms a plan only for an op it has work for
    op = CollectiveOp(op_id=0, kind="write", dataset="d0",
                      arrays=(array.spec(),), client_ranks=(0,))
    assert len(server_plans) == \
        N_TENANTS * len(op_participants(op, N_IO, config))
    # the .schema array descriptor is built once per shape (one
    # describe() per array in it), not once per committed dataset
    assert len(describes) <= len(op.arrays) * shapes
