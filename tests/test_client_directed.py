"""Tests for the client-directed ablation baseline."""

import numpy as np
import pytest

from repro.baselines import BaselineRuntime, run_client_directed
from repro.baselines.client_directed import _pieces, client_piece_schedule
from repro.core import Array, ArrayLayout, BLOCK, NONE, PandaConfig, PandaRuntime
from repro.core.plan import dataset_file
from repro.core.protocol import CollectiveOp
from repro.workloads import distribute, make_global_array, write_array_app


def make_op(shape=(8, 8, 8), mem_mesh=(2, 2, 2), disk_mesh=None,
            disk_dists=None, dataset="cd", sub_chunk=None):
    mem = ArrayLayout("m", mem_mesh)
    disk = ArrayLayout("d", disk_mesh) if disk_mesh else None
    arr = Array("a", shape, np.float64, mem, [BLOCK] * len(shape),
                disk, disk_dists, sub_chunk_bytes=sub_chunk)
    op = CollectiveOp(
        op_id=0, kind="write", dataset=dataset, arrays=(arr.spec(),),
        client_ranks=tuple(range(mem.n_nodes)),
    )
    return arr, op


def test_schedule_covers_every_byte_once():
    arr, op = make_op(disk_mesh=(2,), disk_dists=[BLOCK, NONE, NONE],
                      sub_chunk=512)
    covered = np.zeros(arr.shape, dtype=int)
    total = 0
    for pos in range(8):
        for _s, _off, region, nbytes, _ai in client_piece_schedule(
            op, 2, PandaConfig(sub_chunk_bytes=512), pos
        ):
            covered[region.slices()] += 1
            total += nbytes
    assert (covered == 1).all()
    assert total == arr.nbytes


def test_schedule_offsets_disjoint():
    arr, op = make_op(sub_chunk=256)
    spans = {s: [] for s in range(2)}
    for pos in range(8):
        for s, off, _r, nbytes, _ai in client_piece_schedule(
            op, 2, PandaConfig(sub_chunk_bytes=256), pos
        ):
            spans[s].append((off, off + nbytes))
    for s, intervals in spans.items():
        intervals.sort()
        for (a0, a1), (b0, _b1) in zip(intervals, intervals[1:]):
            assert a1 <= b0, f"overlap on server {s}"


@pytest.mark.parametrize("disk_mesh,disk_dists", [
    (None, None),
    ((2,), [BLOCK, NONE, NONE]),
    ((4,), [BLOCK, NONE, NONE]),
])
def test_files_byte_identical_to_panda(disk_mesh, disk_dists):
    """The whole point of the ablation: same layout, different control
    flow -- the bytes on disk must match Panda's exactly."""
    arr, op = make_op(disk_mesh=disk_mesh, disk_dists=disk_dists)
    g = make_global_array(arr.shape)
    chunks = distribute(g, arr.memory_schema)
    n_io = 2

    brt = BaselineRuntime(8, n_io)
    run_client_directed(brt, op, "write",
                        {r: {"a": chunks[r]} for r in range(8)})

    prt = PandaRuntime(n_compute=8, n_io=n_io)
    prt.run(write_array_app([arr], "cd", {"a": chunks}))

    for s in range(n_io):
        f = dataset_file("cd", s)
        assert (brt.servers[s].fs.read_all_bytes(f)
                == prt.filesystem(s).read_all_bytes(f))


def test_pieces_count_their_runs_in_the_clients_chunk():
    """A run of a *,*,BLOCK sub-chunk spans rows that a BLOCK^3 client
    chunk holds strided: the exchange charges its gather by the run's
    own run count in the chunk."""
    arr, op = make_op(disk_mesh=(4,), disk_dists=[NONE, NONE, BLOCK],
                      sub_chunk=256)
    config = PandaConfig(sub_chunk_bytes=256)
    rt = BaselineRuntime(8, 4, real_payloads=False)
    strided = 0
    for pos in range(8):
        chunk = arr.memory_schema.chunk(pos).region
        runs = [piece[3] for piece in _pieces(pos, rt, op, config, None)]
        assert runs == [region.contiguous_runs_within(chunk)[0]
                        for _s, _off, region, _n, _ai
                        in client_piece_schedule(op, 4, config, pos)]
        strided += sum(r > 1 for r in runs)
    assert strided > 0


def test_read_roundtrip():
    arr, op = make_op(disk_mesh=(2,), disk_dists=[BLOCK, NONE, NONE])
    g = make_global_array(arr.shape)
    chunks = distribute(g, arr.memory_schema)
    rt = BaselineRuntime(8, 2)
    run_client_directed(rt, op, "write",
                        {r: {"a": chunks[r]} for r in range(8)})
    empty = {r: {"a": np.zeros_like(chunks[r])} for r in range(8)}
    run_client_directed(rt, op, "read", empty)
    for r in range(8):
        np.testing.assert_array_equal(empty[r]["a"], chunks[r])


def test_mesh_must_match_compute_nodes():
    arr, op = make_op()
    rt = BaselineRuntime(4, 2)  # mesh is 8
    with pytest.raises(ValueError, match="memory mesh"):
        run_client_directed(rt, op, "write")


def test_kind_validated():
    arr, op = make_op()
    rt = BaselineRuntime(8, 2)
    with pytest.raises(ValueError):
        run_client_directed(rt, op, "append")


def test_reorganising_schema_is_catastrophic_without_server_direction():
    """Strided pieces become tiny scattered writes: orders of magnitude
    below Panda on the same layout."""
    from repro.bench.harness import build_array, run_panda_point

    shape = (64, 64, 64)  # 2 MB
    a2 = build_array(shape, 8, 2, "traditional")
    op = CollectiveOp(op_id=0, kind="write", dataset="x",
                      arrays=(a2.spec(),), client_ranks=tuple(range(8)))
    rt = BaselineRuntime(8, 2, real_payloads=False)
    cd = run_client_directed(rt, op, "write")
    pd = run_panda_point("write", 8, 2, shape, disk_schema="traditional")
    assert cd.throughput < 0.05 * pd.aggregate


def test_natural_chunking_is_competitive_without_direction():
    """The flip side: with aligned natural chunking and synchronised
    clients, direction itself buys little -- each client's stream is
    already sequential at its server."""
    from repro.bench.harness import build_array, run_panda_point

    shape = (64, 128, 128)  # 8 MB
    a2 = build_array(shape, 8, 2, "natural")
    op = CollectiveOp(op_id=0, kind="write", dataset="x",
                      arrays=(a2.spec(),), client_ranks=tuple(range(8)))
    rt = BaselineRuntime(8, 2, real_payloads=False)
    cd = run_client_directed(rt, op, "write")
    pd = run_panda_point("write", 8, 2, shape, disk_schema="natural")
    assert cd.throughput == pytest.approx(pd.aggregate, rel=0.10)
