"""Tests for the baseline strategies: striping math, bit-exact data
movement, and the qualitative performance ordering."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.baselines import (
    BaselineRuntime,
    StripedLayout,
    run_client_directed,
    run_naive_striping,
    run_traditional_caching,
    run_two_phase,
)
from repro.baselines.common import split_runs
from repro.baselines.two_phase import conforming_segment, transfer_matrix
from repro.core import Array, ArrayLayout
from repro.core.protocol import CollectiveOp, Tags
from repro.core.runtime import RunAborted
from repro.schema import BLOCK, NONE
from repro.sim import Interrupt
from repro.workloads import distribute, make_global_array


def spec_for(shape=(8, 8, 8), mesh=(2, 2, 2), dists=(BLOCK, BLOCK, BLOCK)):
    mem = ArrayLayout("mem", mesh)
    return Array("a", shape, np.float64, mem, dists).spec()


# --- StripedLayout ------------------------------------------------------------

def test_striped_layout_round_robin():
    lay = StripedLayout(total_bytes=1000, n_servers=2, stripe_bytes=100)
    assert lay.map(0, 100) == [(0, 0, 100)]
    assert lay.map(100, 100) == [(1, 0, 100)]
    assert lay.map(200, 100) == [(0, 100, 100)]


def test_striped_layout_splits_at_boundaries():
    lay = StripedLayout(1000, 2, 100)
    pieces = lay.map(50, 200)
    assert pieces == [(0, 50, 50), (1, 0, 100), (0, 100, 50)]
    assert sum(p[2] for p in pieces) == 200


def test_striped_layout_bounds():
    lay = StripedLayout(1000, 2, 100)
    with pytest.raises(ValueError):
        lay.map(900, 200)
    with pytest.raises(ValueError):
        StripedLayout(100, 0, 10)


def test_striped_layout_server_bytes_sum():
    for total in (999, 1000, 1001):
        lay = StripedLayout(total, 3, 100)
        assert sum(lay.server_bytes(s) for s in range(3)) == total


def _split_loop(starts, length, unit):
    """Reference for ``split_runs``: the runs walked one unit at a time."""
    out = []
    for i, start in enumerate(starts):
        pos, end = start, start + length
        while pos < end:
            block = pos // unit
            span = min(end, (block + 1) * unit) - pos
            out.append((block, pos, span, i * length + pos - start))
            pos += span
    return out


@given(st.lists(st.integers(0, 500), max_size=8), st.integers(0, 60),
       st.integers(1, 40))
def test_split_runs_matches_a_loop(starts, length, unit):
    split = split_runs(np.array(starts, dtype=np.int64), length, unit)
    assert list(zip(*(a.tolist() for a in split))) == \
        _split_loop(starts, length, unit)


def test_gather_bytes_reassembles():
    lay = StripedLayout(10, 2, 3)
    stores = {0: b"aaabbbz", 1: b"cccddd"}
    # units: 0->s0(aaa) 1->s1(ccc) 2->s0(bbb) 3->s1(ddd... wait 10 bytes:
    # unit3 has 1 byte) -- verify against map()
    out = lay.gather_bytes(stores)
    assert len(out) == 10
    assert out[:3] == b"aaa"
    assert out[3:6] == b"ccc"
    assert out[6:9] == b"bbb"


# --- two-phase helpers ---------------------------------------------------------

def test_conforming_segments_partition():
    total = 100
    spans = [conforming_segment(total, 7, r) for r in range(7)]
    assert spans[0][0] == 0
    for (a_lo, a_hi), (b_lo, b_hi) in zip(spans, spans[1:]):
        assert a_hi == b_lo
    assert spans[-1][1] == total


def test_transfer_matrix_conserves_bytes():
    spec = spec_for()
    mat = transfer_matrix(spec, 8)
    assert mat.sum() == spec.nbytes
    # each row is the source chunk's bytes
    for src in range(8):
        chunk = spec.memory_schema.chunk(src).region
        assert mat[src].sum() == chunk.size * spec.itemsize


def test_transfer_matrix_block_star_is_near_diagonal():
    """With BLOCK,*,* memory, chunks already conform to segments: the
    matrix is (block-)diagonal."""
    spec = spec_for(mesh=(4,), dists=(BLOCK, NONE, NONE))
    mat = transfer_matrix(spec, 4)
    off_diag = mat.sum() - np.trace(mat)
    assert off_diag == 0


# --- runtime validation ----------------------------------------------------------

def test_baseline_runtime_validation():
    with pytest.raises(ValueError):
        BaselineRuntime(0, 1)
    with pytest.raises(ValueError, match="exceed the machine's 160 nodes"):
        BaselineRuntime(200, 4)
    rt = BaselineRuntime(2, 1)
    spec = spec_for(shape=(4, 4), mesh=(2,), dists=(BLOCK, NONE))
    with pytest.raises(ValueError):
        run_naive_striping(rt, spec, "flush")
    with pytest.raises(ValueError):
        run_traditional_caching(rt, spec, "write")  # no cache configured


@pytest.mark.parametrize("kind", ["write", "read"])
@pytest.mark.parametrize("strategy", ["naive", "caching", "two-phase",
                                      "client-directed"])
def test_real_payloads_without_data_are_refused_up_front(strategy, kind):
    """A real-payload run needs the clients' arrays: without them every
    strategy refuses before its first event, rather than a client
    failing on ``data[rank]`` inside the run."""
    spec = spec_for()
    rt = BaselineRuntime(8, 2, use_cache=strategy == "caching")
    with pytest.raises(ValueError, match="bound local arrays"):
        if strategy == "client-directed":
            op = CollectiveOp(op_id=0, kind="write", dataset="cd",
                              arrays=(spec,), client_ranks=tuple(range(8)))
            run_client_directed(rt, op, kind)
        else:
            {"naive": run_naive_striping, "caching": run_traditional_caching,
             "two-phase": run_two_phase}[strategy](rt, spec, kind)
    assert rt.sim.now == 0.0
    assert rt.network.messages_sent == 0


def test_failed_baseline_client_surfaces_its_own_exception():
    """The baselines run through ``run_supervised``, as Panda does: a
    client that raises tears the phase down -- its peers and the
    daemons are interrupted, no FLUSH or SHUTDOWN is sent -- and the
    caller sees the client's own exception."""
    rt = BaselineRuntime(2, 2, use_cache=True)
    seen = []

    def client(rank, rt):
        if rank == 1:
            raise ValueError("baseline client 1 failed")
        try:
            # a reply that never comes: rank 0 is stranded
            yield from rt.network.comm(rank).recv(tag=Tags.DAEMON_DATA)
        except Interrupt as stop:
            seen.append(stop.cause)
            raise

    with pytest.raises(ValueError, match="baseline client 1 failed") as info:
        rt.execute("write", 0, ["f", "f"], client)
    (cause,) = seen
    assert isinstance(cause, RunAborted)
    assert cause.rank == 1 and cause.exc is info.value
    assert rt.sim.now == 0.0
    assert rt.network.messages_sent == 0


# --- bit-exact round trips for every strategy -------------------------------------

@pytest.mark.parametrize("mesh,dists", [
    ((2, 2, 2), (BLOCK, BLOCK, BLOCK)),
    ((4,), (BLOCK, NONE, NONE)),
    ((2, 2), (NONE, BLOCK, BLOCK)),
])
def test_naive_striping_roundtrip(mesh, dists):
    spec = spec_for(mesh=mesh, dists=dists)
    g = make_global_array(spec.shape)
    data = distribute(g, spec.memory_schema)
    rt = BaselineRuntime(spec.memory_schema.mesh.size, 2, stripe_bytes=256)
    run_naive_striping(rt, spec, "write", data)
    blob = rt.gather_file("naive.striped", spec.nbytes)
    np.testing.assert_array_equal(
        np.frombuffer(blob, dtype=np.float64).reshape(spec.shape), g
    )
    empty = {r: np.zeros_like(v) for r, v in data.items()}
    run_naive_striping(rt, spec, "read", empty)
    for r, v in data.items():
        np.testing.assert_array_equal(empty[r], v)


def test_traditional_caching_roundtrip_under_pressure():
    """A cache far smaller than the data still yields correct bytes."""
    spec = spec_for()
    g = make_global_array(spec.shape)
    data = distribute(g, spec.memory_schema)
    rt = BaselineRuntime(8, 2, use_cache=True, cache_bytes=512,
                         cache_block_bytes=128, stripe_bytes=256)
    run_traditional_caching(rt, spec, "write", data)
    blob = rt.gather_file("cfs.striped", spec.nbytes)
    np.testing.assert_array_equal(
        np.frombuffer(blob, dtype=np.float64).reshape(spec.shape), g
    )
    empty = {r: np.zeros_like(v) for r, v in data.items()}
    run_traditional_caching(rt, spec, "read", empty)
    for r, v in data.items():
        np.testing.assert_array_equal(empty[r], v)


@pytest.mark.parametrize("mesh,dists", [
    ((2, 2, 2), (BLOCK, BLOCK, BLOCK)),
    ((8,), (NONE, BLOCK, NONE)),
])
def test_two_phase_roundtrip(mesh, dists):
    spec = spec_for(mesh=mesh, dists=dists)
    g = make_global_array(spec.shape)
    data = distribute(g, spec.memory_schema)
    rt = BaselineRuntime(spec.memory_schema.mesh.size, 2, stripe_bytes=512)
    run_two_phase(rt, spec, "write", data)
    blob = rt.gather_file("twophase.striped", spec.nbytes)
    np.testing.assert_array_equal(
        np.frombuffer(blob, dtype=np.float64).reshape(spec.shape), g
    )
    empty = {r: np.zeros_like(v) for r, v in data.items()}
    run_two_phase(rt, spec, "read", empty)
    for r, v in data.items():
        np.testing.assert_array_equal(empty[r], v)


def test_all_strategies_produce_identical_files():
    """Same workload, same striping -> byte-identical striped files."""
    spec = spec_for()
    g = make_global_array(spec.shape)
    data = distribute(g, spec.memory_schema)
    blobs = []
    rt = BaselineRuntime(8, 2, stripe_bytes=512)
    run_naive_striping(rt, spec, "write", data)
    blobs.append(rt.gather_file("naive.striped", spec.nbytes))
    rt = BaselineRuntime(8, 2, use_cache=True, cache_bytes=4096,
                         cache_block_bytes=512, stripe_bytes=512)
    run_traditional_caching(rt, spec, "write", data)
    blobs.append(rt.gather_file("cfs.striped", spec.nbytes))
    rt = BaselineRuntime(8, 2, stripe_bytes=512)
    run_two_phase(rt, spec, "write", data)
    blobs.append(rt.gather_file("twophase.striped", spec.nbytes))
    assert blobs[0] == blobs[1] == blobs[2]


# --- qualitative performance ordering ------------------------------------------------

def test_caching_beats_naive_and_two_phase_beats_caching():
    # 2 MB: big enough that the cache is under pressure and two-phase
    # has several stripes per server to stream
    spec = spec_for(shape=(64, 64, 64))
    rt_naive = BaselineRuntime(8, 2, real_payloads=False,
                               stripe_bytes=32 * 1024)
    naive = run_naive_striping(rt_naive, spec, "write")
    rt_cache = BaselineRuntime(8, 2, real_payloads=False, use_cache=True,
                               cache_bytes=512 * 1024,
                               cache_block_bytes=32 * 1024,
                               stripe_bytes=32 * 1024)
    cached = run_traditional_caching(rt_cache, spec, "write")
    rt_tp = BaselineRuntime(8, 2, real_payloads=False,
                            stripe_bytes=256 * 1024)
    tp = run_two_phase(rt_tp, spec, "write")
    assert cached.throughput > naive.throughput
    assert tp.throughput > cached.throughput


def test_virtual_mode_matches_real_mode_elapsed():
    """Virtual payloads change nothing about timing."""
    spec = spec_for()
    g = make_global_array(spec.shape)
    data = distribute(g, spec.memory_schema)
    rt_real = BaselineRuntime(8, 2, stripe_bytes=512)
    real = run_naive_striping(rt_real, spec, "write", data)
    rt_virt = BaselineRuntime(8, 2, real_payloads=False, stripe_bytes=512)
    virt = run_naive_striping(rt_virt, spec, "write")
    assert real.elapsed == pytest.approx(virt.elapsed, rel=1e-12)
