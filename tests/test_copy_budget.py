"""The real-payload plane's copy budget, as an exact byte count.

DESIGN.md section 9 gives every hop of the data plane a budget: how
often a payload byte may move between the client's chunk and the file.
It is once each way, whatever the layouts: pieces travel as views, a
server gathers a write straight into the file's reserved extent, and a
read's pieces are views of the file.  ``COUNTERS.bytes_copied`` counts
every move, so the budget is checked here as an equality on 2 MB round
trips.  A pass that creeps
back into the write or read path then fails as a count, on any host,
rather than as a timing.  The baselines that move a client's runs
straight to the daemons (naive striping and traditional caching) are
held to the same budget: the daemon hands the store a view of the
request's payload, and the read reply lands in the client's chunk.
Two-phase I/O adds its permutation, one more copy each way by design.
The sequential reader copies each byte of a load once, from a view of
the file into the working set.
"""

import tracemalloc

import numpy as np
import pytest

from repro.baselines import (
    BaselineRuntime,
    run_naive_striping,
    run_traditional_caching,
    run_two_phase,
)
from repro.core import (
    Array,
    ArrayLayout,
    BLOCK,
    NONE,
    PandaConfig,
    PandaRuntime,
)
from repro.core.plan import build_server_plan
from repro.core.protocol import CollectiveOp
from repro.core.sequential import SequentialPanda, row_major_schema
from repro.counters import COUNTERS
from repro.workloads import (
    distribute,
    make_global_array,
    read_array_app,
    write_array_app,
)

N_COMPUTE, N_IO = 8, 2
SHAPE = (64, 64, 64)
PAYLOAD = 64 ** 3 * 8  # 2 MB of float64


def _roundtrip(disk_mesh, disk_dist):
    """Write then read one 2 MB BLOCK^3 array under the disk schema
    given; returns the two results, the bytes of the strided pieces on
    the client's and on the server's side (from the plan's piece rows)
    and the size of the dataset's schema file."""
    mem = ArrayLayout("mem", (2, 2, 2))
    disk = ArrayLayout("disk", disk_mesh)
    array = Array("a", SHAPE, np.float64, mem, [BLOCK] * 3, disk, disk_dist)
    whole = make_global_array(SHAPE)
    data = {"a": distribute(whole, array.memory_schema)}
    config = PandaConfig()
    runtime = PandaRuntime(N_COMPUTE, N_IO, config=config, real_payloads=True)

    wrote = runtime.run(write_array_app([array], "ds", data))
    read = runtime.run(read_array_app([array], "ds"))
    for rank, chunk in data["a"].items():
        np.testing.assert_array_equal(
            runtime._client_state[rank]["data"]["a"], chunk)

    op = CollectiveOp(op_id=0, kind="write", dataset="ds",
                      arrays=(array.spec(),),
                      client_ranks=tuple(range(N_COMPUTE)))
    rows = [row for index in range(N_IO)
            for item in build_server_plan(op, index, N_IO, config).items
            for row in item.pieces]
    strided = (sum(r.nbytes for r in rows if r.runs_chunk > 1),
               sum(r.nbytes for r in rows if r.runs_sub > 1))
    schema_file = runtime.filesystems[0].store.size("ds.schema")
    return wrote, read, strided, schema_file


def _assert_one_copy_per_byte(wrote, read, schema_file):
    # write: piece -> the file's reserved extent (inject_region); the
    # piece travels as a view of the client's chunk, strided or not
    assert wrote.counters["bytes_copied"] == PAYLOAD + schema_file
    # read: piece -> client chunk; the piece is a view of the file
    assert read.counters["bytes_copied"] == PAYLOAD


def test_roundtrip_moves_each_byte_once_per_hop():
    wrote, read, strided, schema_file = _roundtrip(
        (N_IO,), [BLOCK, NONE, NONE])
    # BLOCK^3 -> BLOCK,*,*: a client's piece is a whole leading slab of
    # its chunk, but a 32x32 corner of a sub-chunk's rows
    assert strided == (0, PAYLOAD)
    _assert_one_copy_per_byte(wrote, read, schema_file)


def test_pieces_strided_on_both_sides_still_move_once():
    wrote, read, strided, schema_file = _roundtrip(
        (4,), [NONE, NONE, BLOCK])
    # BLOCK^3 -> *,*,BLOCK: every piece is a 32x32x16 brick, strided in
    # the client's 32^3 chunk and in the 64x64x16 sub-chunk alike
    assert strided == (PAYLOAD, PAYLOAD)
    _assert_one_copy_per_byte(wrote, read, schema_file)


@pytest.mark.parametrize("run, copies", [
    (run_naive_striping, 1), (run_traditional_caching, 1), (run_two_phase, 2),
], ids=["naive", "caching", "two-phase"])
def test_baseline_write_and_read_move_each_byte_once(run, copies):
    # write: request payload -> the daemon's file (the store's copy;
    # the buffer cache keeps no bytes of its own); read: reply -> the
    # client's chunk.  Two-phase's permutation adds one copy each way:
    # every byte is unpacked from a PERMUTE (sent as views) or copied
    # across within its own rank
    mem = ArrayLayout("mem", (2, 2, 2))
    spec = Array("a", SHAPE, np.float64, mem, [BLOCK] * 3).spec()
    data = distribute(make_global_array(SHAPE), spec.memory_schema)
    rt = BaselineRuntime(N_COMPUTE, N_IO,
                         use_cache=run is run_traditional_caching)
    back = {r: np.zeros_like(c) for r, c in data.items()}
    copied = []
    for kind, chunks in (("write", data), ("read", back)):
        before = COUNTERS.bytes_copied
        run(rt, spec, kind, chunks)
        copied.append(COUNTERS.bytes_copied - before)
    for r, c in data.items():
        np.testing.assert_array_equal(back[r], c)
    assert copied == [copies * PAYLOAD, copies * PAYLOAD]


def test_sequential_load_copies_each_byte_once():
    # a row-major file read whole is one run: its bytes go from a view
    # of the file into the working set, so the load holds one payload
    # of memory and copies it once
    whole = make_global_array(SHAPE)
    sp = SequentialPanda()
    sp.store("a", whole, row_major_schema(SHAPE))
    before = COUNTERS.bytes_copied
    tracemalloc.start()
    try:
        out, _stats = sp.load("a")
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(out, whole)
    assert COUNTERS.bytes_copied - before == PAYLOAD
    assert peak < 1.5 * PAYLOAD
