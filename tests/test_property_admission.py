"""The shape-keyed admission memos change nothing but host time.

A memoised ``predict`` must return the floats a cold walk computes, bit
for bit (they feed the SJF keys and the replay traces, which embed them
as hex), and the templated ``.schema`` text must be the bytes
``json.dumps(desc, indent=1)`` would have produced.  The reference
descriptor below is the encoder the template replaced.
"""

import json
from dataclasses import replace

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.bench.profiling import clear_caches
from repro.core import Array, ArrayLayout, PandaConfig, PandaRuntime
from repro.core.costmodel import predict
from repro.core.protocol import CollectiveOp
from repro.faults import FaultSpec
from repro.machine import sp2
from repro.schema import BLOCK, NONE
from repro.workloads import distribute, make_global_array, write_array_app


def reference_schema_blob(runtime, op):
    desc = {
        "dataset": op.dataset,
        "n_servers": runtime.n_io,
        "sub_chunk_bytes": runtime.config.sub_chunk_bytes,
        "arrays": [
            {"name": a.name, "shape": list(a.shape), "itemsize": a.itemsize,
             "dtype": a.dtype, "disk_schema": a.disk_schema.describe()}
            for a in op.arrays
        ],
    }
    relocated = runtime.relocations.get(op.dataset)
    if relocated:
        desc["relocations"] = {
            str(crashed): [
                {"survivor": a.survivor_index, "file": a.file_name,
                 "nbytes": a.nbytes}
                for a in assignments
            ]
            for crashed, assignments in sorted(relocated.items())
        }
    return json.dumps(desc, indent=1).encode()


def hex_fields(breakdown):
    return (breakdown.kind, breakdown.n_servers,
            breakdown.startup.hex(), breakdown.completion.hex(),
            tuple(b.hex() for b in breakdown.server_busy),
            breakdown.disk_time.hex(), breakdown.network_time.hex(),
            breakdown.copy_time.hex(), breakdown.elapsed.hex())


@st.composite
def shapes(draw):
    shape = (draw(st.sampled_from([8, 24, 64])),
             draw(st.sampled_from([16, 48])),
             draw(st.sampled_from([8, 32])))
    mem_mesh = draw(st.sampled_from([(2, 2), (4, 2), (2, 2, 2), (3,)]))
    mem_dists = [BLOCK] * len(mem_mesh) + [NONE] * (3 - len(mem_mesh))
    n_io = draw(st.integers(1, 5))
    mem = ArrayLayout("m", mem_mesh)
    if draw(st.booleans()):
        array = Array("a", shape, np.float64, mem, mem_dists,
                      ArrayLayout("d", (n_io,)), [BLOCK, NONE, NONE])
    else:
        array = Array("a", shape, np.float64, mem, mem_dists)
    kind = draw(st.sampled_from(["read", "write"]))
    spec = sp2(fast_disk=draw(st.booleans()))
    sub = draw(st.sampled_from([4096, 64 * 1024, 1 << 20]))
    dataset = draw(st.text(
        st.sampled_from('ab/."\\\'\né世\U0001f600 '), min_size=1,
        max_size=8))
    return array, kind, n_io, spec, sub, dataset


@settings(max_examples=60, deadline=None, derandomize=True)
@given(shapes())
def test_warm_memos_equal_a_cold_derivation(case):
    array, kind, n_io, spec, sub, dataset = case
    config = PandaConfig(sub_chunk_bytes=sub)
    n_clients = array.memory_layout.n_nodes
    op = CollectiveOp(op_id=3, kind=kind, dataset=dataset,
                      arrays=(array.spec(),),
                      client_ranks=tuple(range(n_clients)))

    runtime = PandaRuntime(n_clients, n_io, spec=spec, config=config,
                           real_payloads=True)
    store = runtime.filesystems[0]

    # fill the memos with this op's neighbours, one key component apart
    # each: an entry served under an incomplete key then shows up below
    # as a warm result that differs from the cold one
    other_kind = replace(op, kind="read" if kind == "write" else "write")
    other_disk = spec.evolve(fast_disk=not spec.fast_disk)
    other_sub = PandaConfig(sub_chunk_bytes=sub // 2)
    predict(other_kind, n_clients, n_io, spec, config)
    predict(op, n_clients, n_io + 1, spec, config)
    predict(op, n_clients, n_io, other_disk, config)
    predict(op, n_clients, n_io, spec, other_sub)
    for n, cfg in ((n_io + 1, config), (n_io, other_sub)):
        PandaRuntime(n_clients, n, spec=spec, config=cfg,
                     real_payloads=True).catalog_commit(op)

    warm = predict(op, n_clients, n_io, spec, config)
    runtime.catalog_commit(op)
    warm_blob = store.read_all_bytes(f"{dataset}.schema")
    clear_caches()
    cold = predict(op, n_clients, n_io, spec, config)
    assert hex_fields(warm) == hex_fields(cold)
    assert hex_fields(predict(op, n_clients, n_io, spec, config)) == \
        hex_fields(cold)

    runtime.catalog_commit(op)
    assert store.read_all_bytes(f"{dataset}.schema") == warm_blob == \
        reference_schema_blob(runtime, op)


def test_schema_blob_of_a_recovered_write_matches_the_reference():
    mem = ArrayLayout("mem", (2, 2))
    array = Array("a", (24, 24), np.float64, mem, (BLOCK, BLOCK),
                  ArrayLayout("disk", (3,)), (BLOCK, NONE))
    runtime = PandaRuntime(
        n_compute=4, n_io=3, real_payloads=True,
        config=PandaConfig(faults=FaultSpec(seed=1, crashes=((2, 0.0),))))
    data = {"a": distribute(make_global_array((24, 24)), array.memory_schema)}
    runtime.run(write_array_app([array], 'd"s', data))
    assert 2 in runtime.relocations['d"s']
    blob = runtime.filesystems[0].read_all_bytes('d"s.schema')
    assert blob == reference_schema_blob(runtime, runtime.catalog['d"s'])
    assert "relocations" in json.loads(blob)
