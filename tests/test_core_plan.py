"""Unit tests for server plan formation (round-robin chunk assignment,
1 MB sub-chunking, sequential file layout)."""

import numpy as np
import pytest

from repro.core.config import PandaConfig
from repro.core.plan import build_server_plan, dataset_file, locate_chunk
from repro.core.protocol import ArraySpec, CollectiveOp
from repro.machine import MB
from repro.schema import BLOCK, DataSchema, NONE


def make_spec(shape=(8, 8, 8), mem_mesh=(2, 2, 2), mem_dists=(BLOCK, BLOCK, BLOCK),
              disk_mesh=None, disk_dists=None, itemsize=8, name="a"):
    mem = DataSchema.build(shape, mem_mesh, mem_dists)
    disk = (
        DataSchema.build(shape, disk_mesh, disk_dists)
        if disk_mesh is not None
        else mem
    )
    return ArraySpec(
        name=name, shape=tuple(shape), itemsize=itemsize, dtype="<f8",
        memory_schema=mem, disk_schema=disk,
    )


def make_op(specs, kind="write", dataset="ds", op_id=0):
    if not isinstance(specs, (list, tuple)):
        specs = [specs]
    return CollectiveOp(op_id=op_id, kind=kind, dataset=dataset,
                        arrays=tuple(specs))


def test_round_robin_assignment():
    op = make_op(make_spec())
    cfg = PandaConfig()
    for s in range(3):
        plan = build_server_plan(op, s, 3, cfg)
        for item in plan.items:
            assert item.chunk_index % 3 == s


def test_plans_partition_all_chunks():
    spec = make_spec()
    op = make_op(spec)
    cfg = PandaConfig()
    seen = set()
    for s in range(3):
        plan = build_server_plan(op, s, 3, cfg)
        seen.update(i.chunk_index for i in plan.items)
    assert seen == {c.index for c in spec.disk_schema.chunks()}


def test_plans_cover_every_byte_exactly_once():
    spec = make_spec()
    op = make_op(spec)
    cfg = PandaConfig()
    covered = np.zeros(spec.shape, dtype=int)
    total = 0
    for s in range(2):
        plan = build_server_plan(op, s, 2, cfg)
        for item in plan.items:
            covered[item.region.slices()] += 1
            total += item.nbytes
    assert (covered == 1).all()
    assert total == spec.nbytes


def test_file_offsets_are_contiguous_per_server():
    spec = make_spec(shape=(16, 16, 16))
    op = make_op(spec)
    plan = build_server_plan(op, 0, 2, PandaConfig(sub_chunk_bytes=1024))
    offset = 0
    for item in plan.items:
        assert item.file_offset == offset
        offset += item.nbytes
    assert offset == plan.total_bytes


def test_subchunk_size_respected():
    spec = make_spec(shape=(32, 32, 32))
    op = make_op(spec)
    cfg = PandaConfig(sub_chunk_bytes=2048)
    plan = build_server_plan(op, 0, 1, cfg)
    assert all(i.nbytes <= 2048 for i in plan.items)
    assert len(plan.items) > 1


def test_one_mb_default_subchunking():
    # 4 MB chunk of doubles -> 4 sub-chunks of 1 MB under the default
    spec = make_spec(shape=(128, 64, 64), mem_mesh=(1, 1, 1))
    op = make_op(spec)
    plan = build_server_plan(op, 0, 1, PandaConfig())
    assert len(plan.items) == 4
    assert all(i.nbytes == MB for i in plan.items)


def test_subchunks_of_chunk_are_consecutive_row_major():
    spec = make_spec(shape=(16, 8, 8), mem_mesh=(2, 2, 2))
    op = make_op(spec)
    plan = build_server_plan(op, 0, 2, PandaConfig(sub_chunk_bytes=256))
    for chunk in spec.disk_schema.chunks():
        if chunk.index % 2 != 0:
            continue
        items = [i for i in plan.items if i.chunk_index == chunk.index]
        linear = 0
        for i in items:
            # one run of the chunk, starting where the last one ended
            assert i.region.run_offsets(chunk.region)[0].tolist() == [linear]
            linear += i.region.size
        assert linear == chunk.region.size


def test_multi_array_plan_orders_arrays_in_op_order():
    a = make_spec(name="a")
    b = make_spec(name="b")
    op = make_op([a, b])
    plan = build_server_plan(op, 0, 2, PandaConfig())
    array_sequence = [i.array_index for i in plan.items]
    assert array_sequence == sorted(array_sequence)


def test_empty_chunks_are_skipped():
    # 2 rows over 4 mesh positions: positions 2, 3 are empty
    spec = make_spec(shape=(2, 4, 4), mem_mesh=(4,), mem_dists=(BLOCK, NONE, NONE))
    op = make_op(spec)
    cfg = PandaConfig()
    total = sum(
        build_server_plan(op, s, 2, cfg).total_bytes for s in range(2)
    )
    assert total == spec.nbytes


def chunks_of(plan):
    """(array_index, chunk_index) pairs the plan's items cover, in order."""
    return list(dict.fromkeys((i.array_index, i.chunk_index) for i in plan.items))


def test_uneven_chunks_to_servers():
    """Natural chunking with 8 chunks over 3 servers: 3/3/2 split --
    the paper's load-imbalance case."""
    op = make_op(make_spec())
    cfg = PandaConfig()
    counts = [len(chunks_of(build_server_plan(op, s, 3, cfg)))
              for s in range(3)]
    assert counts == [3, 3, 2]


def test_traditional_order_single_chunk_per_server():
    spec = make_spec(disk_mesh=(4,), disk_dists=(BLOCK, NONE, NONE))
    op = make_op(spec)
    cfg = PandaConfig()
    for s in range(4):
        plan = build_server_plan(op, s, 4, cfg)
        assert chunks_of(plan) == [(0, s)]


def test_plan_validation():
    op = make_op(make_spec())
    with pytest.raises(ValueError):
        build_server_plan(op, 0, 0, PandaConfig())
    with pytest.raises(ValueError):
        build_server_plan(op, 5, 2, PandaConfig())


def test_locate_chunk_finds_offsets():
    spec = make_spec(shape=(16, 8, 8))
    op = make_op(spec)
    cfg = PandaConfig(sub_chunk_bytes=512)
    for chunk in spec.disk_schema.chunks():
        server, offset, nbytes = locate_chunk(op, 3, cfg, 0, chunk.index)
        assert server == chunk.index % 3
        assert nbytes == chunk.region.size * spec.itemsize
        plan = build_server_plan(op, server, 3, cfg)
        first = [i for i in plan.items if i.chunk_index == chunk.index][0]
        assert first.file_offset == offset


def test_locate_chunk_missing_raises():
    op = make_op(make_spec())
    with pytest.raises(KeyError):
        locate_chunk(op, 2, PandaConfig(), 0, 999)


def test_dataset_file_naming():
    assert dataset_file("sim.t00001", 3) == "sim.t00001.s3.panda"


def test_plan_deterministic():
    op = make_op(make_spec(shape=(32, 16, 8)))
    cfg = PandaConfig()
    p1 = build_server_plan(op, 1, 4, cfg)
    p2 = build_server_plan(op, 1, 4, cfg)
    assert p1.items == p2.items


def test_per_array_subchunk_override():
    """The paper's future-work option: an explicitly sub-chunked schema
    on one array, while its sibling uses the library default."""
    small = make_spec(shape=(16, 8, 8), name="fine")
    small = ArraySpec(
        name=small.name, shape=small.shape, itemsize=small.itemsize,
        dtype=small.dtype, memory_schema=small.memory_schema,
        disk_schema=small.disk_schema, sub_chunk_bytes=512,
    )
    big = make_spec(shape=(16, 8, 8), name="coarse")
    op = make_op([small, big])
    plan = build_server_plan(op, 0, 1, PandaConfig())
    fine_items = [i for i in plan.items if i.array_index == 0]
    coarse_items = [i for i in plan.items if i.array_index == 1]
    assert all(i.nbytes <= 512 for i in fine_items)
    assert len(fine_items) > len(coarse_items)


def test_api_array_subchunk_override_marshals():
    import numpy as np
    from repro.core import Array, ArrayLayout, BLOCK

    mem = ArrayLayout("m", (2,))
    a = Array("a", (8,), np.float64, mem, [BLOCK], sub_chunk_bytes=128)
    assert a.spec().sub_chunk_bytes == 128
    b = Array("b", (8,), np.float64, mem, [BLOCK])
    assert b.spec().sub_chunk_bytes is None


def test_plan_items_cached_across_ops_with_same_geometry():
    """The plan memo keys on (arrays, n_servers, sub-chunk bytes), with
    one lazily filled slot per server -- not on op id, dataset, or kind
    -- so a timestep loop (fresh dataset per step) computes its plan
    once."""
    from repro.counters import COUNTERS

    spec = make_spec(name="plan-cache-probe")  # unique: no cross-test hits
    cfg = PandaConfig()
    a = build_server_plan(make_op(spec, dataset="step.0", op_id=0), 0, 2, cfg)
    before = COUNTERS.snapshot()
    b = build_server_plan(
        make_op(spec, dataset="step.1", op_id=7, kind="read"), 0, 2, cfg
    )
    after = COUNTERS.snapshot()
    assert after["plan_cache_hits"] == before["plan_cache_hits"] + 1
    assert after["plan_cache_misses"] == before["plan_cache_misses"]
    assert a.items == b.items
    assert a.items is b.items  # the memoised tuple itself, immutable
    # a different striping width misses
    c = build_server_plan(make_op(spec, dataset="step.0"), 0, 3, cfg)
    assert COUNTERS.snapshot()["plan_cache_misses"] == \
        after["plan_cache_misses"] + 1
    assert c.n_servers == 3


def test_plan_memo_capacity_counts_shapes_not_servers():
    """One memo entry per op shape whatever the striping width: a run
    wider than the memo's capacity still hits on its second op."""
    from repro import memo
    from repro.counters import COUNTERS

    n_servers = memo.MAX_ENTRIES + 76
    op = make_op(make_spec(name="wide-cluster-probe"))
    cfg = PandaConfig()
    for s in range(n_servers):
        build_server_plan(op, s, n_servers, cfg)
    before = COUNTERS.snapshot()
    for s in range(n_servers):
        build_server_plan(op, s, n_servers, cfg)
    after = COUNTERS.snapshot()
    assert after["plan_cache_misses"] == before["plan_cache_misses"]
    assert after["plan_cache_hits"] == before["plan_cache_hits"] + n_servers
