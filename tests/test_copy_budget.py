"""The real-payload plane's copy budget, as an exact byte count.

DESIGN.md section 9 gives every hop of the data plane a budget: how
often a payload byte may move between the client's chunk and the file.
``COUNTERS.bytes_copied`` counts every such move, so the budget is
checked here as an equality on a 2 MB round trip.  A pass that creeps
back into the write or read path then fails as a count, on any host,
rather than as a timing.
"""

import numpy as np

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
from repro.workloads import (
    distribute,
    make_global_array,
    read_array_app,
    write_array_app,
)

N_COMPUTE, N_IO = 8, 2
SHAPE = (64, 64, 64)
PAYLOAD = 64 ** 3 * 8  # 2 MB of float64


def _strided_bytes(array, config):
    """Bytes of the pieces that are not one contiguous run of the
    client's chunk (gathered into a send buffer on writes) and of the
    server's sub-chunk (gathered out of the file view on reads)."""
    spec = array.spec()
    op = CollectiveOp(op_id=0, kind="write", dataset="ds", arrays=(spec,),
                      client_ranks=tuple(range(N_COMPUTE)))
    client = server = 0
    for index in range(N_IO):
        for item in build_server_plan(op, index, N_IO, config).items:
            for chunk, piece in spec.memory_schema.chunks_intersecting(item.region):
                nbytes = piece.size * spec.itemsize
                client += nbytes * (
                    piece.contiguous_runs_within(chunk.region)[0] > 1)
                server += nbytes * (
                    piece.contiguous_runs_within(item.region)[0] > 1)
    return client, server


def test_roundtrip_moves_each_byte_once_per_hop():
    mem = ArrayLayout("mem", (2, 2, 2))
    disk = ArrayLayout("disk", (N_IO,))
    array = Array("a", SHAPE, np.float64, mem, [BLOCK] * 3,
                  disk, [BLOCK, NONE, NONE])
    whole = make_global_array(SHAPE)
    data = {"a": distribute(whole, array.memory_schema)}
    config = PandaConfig()
    runtime = PandaRuntime(N_COMPUTE, N_IO, config=config, real_payloads=True)

    wrote = runtime.run(write_array_app([array], "ds", data))
    read = runtime.run(read_array_app([array], "ds"))
    for rank, chunk in data["a"].items():
        np.testing.assert_array_equal(
            runtime._client_state[rank]["data"]["a"], chunk)

    client_strided, server_strided = _strided_bytes(array, config)
    # BLOCK^3 -> BLOCK,*,*: a client's piece is a whole leading slab of
    # its chunk (sent in place), but a 32x32 corner of a sub-chunk's rows
    assert (client_strided, server_strided) == (0, PAYLOAD)
    schema_file = runtime.filesystems[0].store.size("ds.schema")

    # write: piece -> sub-chunk staging, staging -> file
    assert wrote.counters["bytes_copied"] == (
        client_strided + 2 * PAYLOAD + schema_file)
    # read: file -> piece is a view unless strided, piece -> client chunk
    assert read.counters["bytes_copied"] == server_strided + PAYLOAD
