"""The flattened piece table: every sub-chunk's piece rows equal the
geometry a per-sub-chunk walk would derive, the cost model's fold over
them is bit-identical to the per-sub-chunk fold it replaced, and the
rows are built once per server and op shape."""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro import memo
from repro.bench.experiments import EXPERIMENTS
from repro.bench.harness import build_array
from repro.core import Array, ArrayGroup, ArrayLayout, PandaConfig, PandaRuntime
from repro.core.costmodel import _server_walk
from repro.core.plan import build_server_plan
from repro.core.protocol import ArraySpec, CollectiveOp
from repro.core.recovery import partition_recovery
from repro.faults import FaultSpec
from repro.machine import NAS_SP2
from repro.mpi.message import CONTROL_MESSAGE_BYTES, MESSAGE_HEADER_BYTES
from repro.schema import BLOCK, NONE, DataSchema
from repro.workloads.apps import write_read_roundtrip_app

# -- rows against an exhaustive derivation ------------------------------------


@st.composite
def _schema(draw, shape):
    """An HPF schema of ``shape``: BLOCK on a non-empty subset of the
    dimensions, up to 4 parts each (more parts than indices leaves
    empty trailing blocks)."""
    block = draw(st.lists(st.booleans(), min_size=len(shape),
                          max_size=len(shape)).filter(any))
    dists = [BLOCK if b else NONE for b in block]
    mesh = tuple(draw(st.integers(1, 4)) for b in block if b)
    return mesh, dists


@st.composite
def _cases(draw):
    """(array descriptions, n_io, library sub-chunk bytes); an array is
    (shape, memory mesh, memory dists, disk mesh, disk dists, override),
    with disk mesh None for natural chunking."""
    arrays = []
    for _ in range(draw(st.integers(1, 2))):
        rank = draw(st.integers(1, 3))
        shape = tuple(draw(st.integers(1, 9)) for _ in range(rank))
        mem_mesh, mem_dists = draw(_schema(shape))
        disk_mesh = disk_dists = None
        if draw(st.booleans()):
            disk_mesh, disk_dists = draw(_schema(shape))
        override = draw(st.sampled_from([None, 16, 40, 128]))
        arrays.append((shape, mem_mesh, mem_dists, disk_mesh, disk_dists,
                       override))
    return (tuple(arrays), draw(st.integers(1, 4)),
            draw(st.sampled_from([8, 24, 64, 256, 1 << 20])))


def _op(arrays):
    specs = []
    for i, (shape, mem_mesh, mem_dists, disk_mesh, disk_dists,
            override) in enumerate(arrays):
        memory = DataSchema.build(shape, mem_mesh, mem_dists)
        disk = (memory if disk_mesh is None
                else DataSchema.build(shape, disk_mesh, disk_dists))
        specs.append(ArraySpec(f"a{i}", shape, 8, "<f8", memory, disk,
                               sub_chunk_bytes=override))
    return CollectiveOp(0, "write", "ds", tuple(specs))


def _reference(spec, item):
    """What the server used to re-derive per sub-chunk, by an
    exhaustive scan of the memory chunks (``chunks_intersecting`` runs
    the same batch kernel as the table, so it is no oracle here)."""
    out = []
    for chunk in spec.memory_schema.chunks(include_empty=True):
        piece = chunk.region.intersect(item.region)
        if piece is not None:
            out.append((chunk.index, piece,
                        piece.contiguous_runs_within(item.region)[0],
                        piece.contiguous_runs_within(chunk.region)[0],
                        piece.size * spec.itemsize))
    return out


#: the uneven 22/22/20 split of 64 rows over 3 I/O nodes under a 2x2 mesh
UNEVEN = ((((64, 64, 64), (2, 2), [BLOCK, BLOCK, NONE], (3,),
            [BLOCK, NONE, NONE], None),), 3, 1 << 20)
#: empty trailing HPF blocks in memory (5 over 4: 2,2,1,0) and on disk
EMPTY_TAILS = ((((5, 3), (4,), [BLOCK, NONE], (4, 1), [BLOCK, BLOCK],
                 None),), 3, 16)
#: natural chunking, several sub-chunks per chunk
NATURAL = ((((8, 6, 4), (2, 3), [BLOCK, BLOCK, NONE], None, None, None),),
           2, 64)
#: a per-array sub-chunk override next to an array without one
OVERRIDE = ((((6, 6), (2, 2), [BLOCK, BLOCK], (3,), [NONE, BLOCK], 40),
             ((7,), (3,), [BLOCK], None, None, None)), 2, 24)


@settings(max_examples=60, deadline=None)
@given(_cases())
@example(UNEVEN)
@example(EMPTY_TAILS)
@example(NATURAL)
@example(OVERRIDE)
def test_piece_rows_match_an_exhaustive_derivation(case):
    arrays, n_io, sub_bytes = case
    op = _op(arrays)
    config = PandaConfig(sub_chunk_bytes=sub_bytes)
    for s in range(n_io):
        for real in (False, True):
            for item in build_server_plan(op, s, n_io, config, real).items:
                spec = op.arrays[item.array_index]
                rows = [(r.mesh_index, r.region, r.runs_sub, r.runs_chunk,
                         r.nbytes) for r in item.pieces]
                assert rows == _reference(spec, item), (case, s, item)
                for r in item.pieces:
                    if not real:
                        assert r.sub_slices is r.chunk_slices is None
                        continue
                    chunk = spec.memory_schema.chunk(r.mesh_index)
                    assert r.sub_slices == \
                        r.region.relative_to(item.region.lo).slices()
                    assert r.chunk_slices == \
                        r.region.relative_to(chunk.region.lo).slices()


# -- the cost model's fold ---------------------------------------------------


def _per_subchunk_walk(op, n_servers, spec, config):
    """The cost walk as it was before the piece table: geometry
    re-derived per sub-chunk.  Test-local oracle for the fold."""
    write = op.kind == "write"
    busy = []
    worst = (0.0, 0.0, 0.0)
    for s in range(n_servers):
        plan = build_server_plan(op, s, n_servers, config)
        disk = net = copy = 0.0
        first_request = True
        for item in plan.items:
            arr = op.arrays[item.array_index]
            pieces = arr.memory_schema.chunks_intersecting(item.region)
            total_runs = 0
            for chunk, overlap in pieces:
                piece_bytes = overlap.size * arr.itemsize
                runs_sub, _ = overlap.contiguous_runs_within(item.region)
                total_runs += runs_sub
                runs_chunk, _ = overlap.contiguous_runs_within(chunk.region)
                if write:
                    net += CONTROL_MESSAGE_BYTES / spec.network_bandwidth
                    net += spec.network_latency
                    net += spec.request_handling_overhead
                    if runs_chunk > 1:
                        copy += spec.copy_time(piece_bytes, runs_chunk)
                    net += (piece_bytes + MESSAGE_HEADER_BYTES) / spec.network_bandwidth
                    net += spec.network_latency
                    net += spec.request_handling_overhead
                else:
                    net += (piece_bytes + MESSAGE_HEADER_BYTES) / spec.network_bandwidth
            copy += spec.copy_time(item.nbytes, max(total_runs, 1))
            disk += spec.fs_time(item.nbytes, write=write,
                                 sequential=not first_request)
            first_request = False
        busy.append(disk + net + copy)
        if busy[-1] >= sum(worst):
            worst = (disk, net, copy)
    return (tuple(busy), *worst)


def _hex(walk):
    busy, *worst = walk
    return [x.hex() for x in busy], [x.hex() for x in worst]


def test_cost_fold_is_bit_identical_on_the_figure_grid():
    config = PandaConfig()
    memo.clear_all()
    for figure in ("fig7", "fig8"):
        exp = EXPERIMENTS[figure]
        for size_mb in exp.sizes_mb:
            for n_io in exp.ionodes:
                array = build_array(exp.shape(size_mb), exp.n_compute, n_io,
                                    exp.disk_schema)
                op = CollectiveOp(0, exp.kind, "ds", (array.spec(),),
                                  tuple(range(exp.n_compute)))
                assert _hex(_server_walk(op, n_io, NAS_SP2, config)) == \
                    _hex(_per_subchunk_walk(op, n_io, NAS_SP2, config)), \
                    (figure, size_mb, n_io)


# -- built once ---------------------------------------------------------------


def test_timestep_loop_builds_rows_in_its_first_step_only():
    memo.clear_all()
    memory = ArrayLayout("mem", (2, 2))
    array = Array("field", (32, 24), np.float64, memory, (BLOCK, BLOCK),
                  ArrayLayout("disk", (3,)), (BLOCK, NONE))
    group = ArrayGroup("sim")
    group.include(array)
    runtime = PandaRuntime(n_compute=4, n_io=3, real_payloads=True)

    def step(ctx):
        ctx.bind(array)
        yield from group.timestep(ctx)

    built = [runtime.run(step).counters["piece_rows_built"]
             for _ in range(3)]
    assert built[0] > 0 and built[1:] == [0, 0], built


def test_mid_write_recovery_reuses_the_crashed_plans_rows():
    memo.clear_all()
    memory = ArrayLayout("mem", (2, 2, 2))
    array = Array("cube", (32, 32, 32), np.float64, memory, [BLOCK] * 3,
                  ArrayLayout("disk", (3,)), (BLOCK, NONE, NONE))
    config = PandaConfig(sub_chunk_bytes=16 * 1024,
                         faults=FaultSpec(seed=1, crashes=((2, 0.3),)))
    runtime = PandaRuntime(n_compute=8, n_io=3, real_payloads=False,
                           config=config)
    result = runtime.run(write_read_roundtrip_app([array], "ds"))
    assert result.counters["recoveries"] >= 1
    # every row the run built belongs to the three servers' own plans:
    # executing server 2's relocated items built none
    op = CollectiveOp(0, "write", "ds", (array.spec(),), tuple(range(8)))
    plans = [build_server_plan(op, s, 3, config) for s in range(3)]
    assert result.counters["piece_rows_built"] == sum(
        len(item.pieces) for plan in plans for item in plan.items)
    shares = partition_recovery(op, 2, [0, 1], 3, config)
    assert [item.pieces for a in shares for item in a.items] == \
        [item.pieces for item in plans[2].items]
