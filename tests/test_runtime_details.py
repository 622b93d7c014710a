"""Detailed tests for runtime bookkeeping: catalog contents, schema
files, OpRecord/RunResult semantics, trace accumulation across runs."""

import gc
import json
import weakref

import numpy as np
import pytest

from repro.core import (
    Array,
    ArrayGroup,
    ArrayLayout,
    BLOCK,
    PandaConfig,
    PandaRuntime,
)
from repro.core.runtime import OpRecord
from repro.machine import MB
from repro.workloads import distribute, make_global_array, read_array_app, write_array_app


def simple(shape=(8, 8), mesh=(2, 2)):
    mem = ArrayLayout("mem", mesh)
    arr = Array("a", shape, np.float64, mem, [BLOCK] * len(shape))
    g = make_global_array(shape)
    return arr, {"a": distribute(g, arr.memory_schema)}, g


# --- catalog and .schema files --------------------------------------------------

def test_schema_file_written_beside_data():
    arr, data, _ = simple()
    rt = PandaRuntime(n_compute=4, n_io=2)
    rt.run(write_array_app([arr], "ds", data))
    store = rt.filesystem(0).store
    assert store.exists("ds.schema")
    desc = json.loads(store.read_all("ds.schema"))
    assert desc["dataset"] == "ds"
    assert desc["n_servers"] == 2
    assert desc["arrays"][0]["name"] == "a"
    assert desc["arrays"][0]["shape"] == [8, 8]
    assert desc["arrays"][0]["disk_schema"]["dists"] == ["BLOCK", "BLOCK"]


def test_schema_file_in_virtual_mode_records_extent():
    arr, _, _ = simple()
    rt = PandaRuntime(n_compute=4, n_io=1, real_payloads=False)
    rt.run(write_array_app([arr], "ds"))
    assert rt.filesystem(0).store.exists("ds.schema")
    assert rt.filesystem(0).store.size("ds.schema") > 0


def test_catalog_records_sub_chunk_config():
    arr, data, _ = simple()
    cfg = PandaConfig(sub_chunk_bytes=4096)
    rt = PandaRuntime(n_compute=4, n_io=1, config=cfg)
    rt.run(write_array_app([arr], "ds", data))
    desc = json.loads(rt.filesystem(0).store.read_all("ds.schema"))
    assert desc["sub_chunk_bytes"] == 4096


def test_rewrite_updates_schema_file():
    arr, data, _ = simple()
    rt = PandaRuntime(n_compute=4, n_io=1)
    rt.run(write_array_app([arr], "ds", data))
    first = rt.filesystem(0).store.read_all("ds.schema")
    rt.run(write_array_app([arr], "ds", data))
    second = rt.filesystem(0).store.read_all("ds.schema")
    assert first == second  # same schema -> same content, but rewritten
    assert json.loads(second)["dataset"] == "ds"


def test_catalog_read_checks_array_order():
    mem = ArrayLayout("mem", (2,))
    a = Array("a", (8,), np.float64, mem, [BLOCK])
    b = Array("b", (8,), np.float64, mem, [BLOCK])
    g = make_global_array((8,))
    data = {"a": distribute(g, a.memory_schema),
            "b": distribute(g, b.memory_schema)}
    rt = PandaRuntime(n_compute=2, n_io=1)
    rt.run(write_array_app([a, b], "ds", data))
    with pytest.raises(ValueError, match="same arrays"):
        rt.run(read_array_app([b, a], "ds"))


def test_catalog_read_rejects_unknown_array():
    mem = ArrayLayout("mem", (2,))
    a = Array("a", (8,), np.float64, mem, [BLOCK])
    c = Array("c", (8,), np.float64, mem, [BLOCK])
    g = make_global_array((8,))
    rt = PandaRuntime(n_compute=2, n_io=1)
    rt.run(write_array_app([a], "ds", {"a": distribute(g, a.memory_schema)}))
    with pytest.raises(KeyError, match="not part of dataset"):
        rt.run(read_array_app([c], "ds"))


def test_catalog_read_rejects_shape_change():
    mem = ArrayLayout("mem", (2,))
    a8 = Array("a", (8,), np.float64, mem, [BLOCK])
    a16 = Array("a", (16,), np.float64, mem, [BLOCK])
    g = make_global_array((8,))
    rt = PandaRuntime(n_compute=2, n_io=1)
    rt.run(write_array_app([a8], "ds", {"a": distribute(g, a8.memory_schema)}))
    with pytest.raises(ValueError, match="shape"):
        rt.run(read_array_app([a16], "ds"))


# --- OpRecord / RunResult ------------------------------------------------------

def test_oprecord_throughput_and_elapsed():
    rec = OpRecord(op_id=0, kind="write", dataset="d", total_bytes=MB,
                   n_arrays=1)
    rec.enters = {0: 1.0, 1: 1.1}
    rec.leaves = {0: 2.9, 1: 3.0}
    assert rec.elapsed == pytest.approx(2.0)
    assert rec.throughput == pytest.approx(MB / 2.0)


def test_run_result_only_contains_this_runs_ops():
    arr, data, _ = simple()
    rt = PandaRuntime(n_compute=4, n_io=1)
    first = rt.run(write_array_app([arr], "one", data))
    second = rt.run(write_array_app([arr], "two", data))
    assert [o.dataset for o in first.ops] == ["one"]
    assert [o.dataset for o in second.ops] == ["two"]


def test_run_result_op_accessor_and_totals():
    arr, data, _ = simple()
    rt = PandaRuntime(n_compute=4, n_io=1)
    res = rt.run(write_array_app([arr], "ds", data))
    assert res.op().dataset == "ds"
    assert res.total_bytes == arr.nbytes
    assert res.elapsed >= res.op().elapsed


def test_trace_accumulates_across_runs():
    arr, data, _ = simple()
    rt = PandaRuntime(n_compute=4, n_io=1, trace=True)
    rt.run(write_array_app([arr], "one", data))
    n1 = len(rt.trace)
    rt.run(write_array_app([arr], "two", data))
    assert len(rt.trace) > n1


def test_sim_clock_monotone_across_runs():
    arr, data, _ = simple()
    rt = PandaRuntime(n_compute=4, n_io=1)
    rt.run(write_array_app([arr], "one", data))
    t1 = rt.sim.now
    rt.run(write_array_app([arr], "two", data))
    assert rt.sim.now > t1


def test_client_counters_persist_across_runs():
    mem = ArrayLayout("mem", (2,))
    arr = Array("a", (8,), np.float64, mem, [BLOCK])
    group = ArrayGroup("G")
    group.include(arr)

    def stepper(ctx):
        ctx.bind(arr)
        yield from group.timestep(ctx)

    rt = PandaRuntime(n_compute=2, n_io=1, real_payloads=False)
    rt.run(stepper)
    rt.run(stepper)
    assert {"G.t00000", "G.t00001"} <= set(rt.catalog)


def test_server_rank_helpers():
    rt = PandaRuntime(n_compute=5, n_io=3)
    assert rt.master_client_rank == 0
    assert rt.master_server_rank == 5
    assert list(rt.client_ranks) == [0, 1, 2, 3, 4]
    assert list(rt.server_ranks) == [5, 6, 7]
    assert rt.server_rank(2) == 7
    assert rt.filesystem(1) is rt.filesystems[1]


def test_run_result_describe_summarises():
    arr, data, _ = simple()
    rt = PandaRuntime(n_compute=4, n_io=2)
    res = rt.run(write_array_app([arr], "ds", data))
    text = res.describe()
    assert "1 collective op(s)" in text
    assert "write" in text and "ds" in text
    assert "MB/s" in text
    assert "disk util" in text


def test_finished_runtime_is_freed_by_reference_counting():
    """Nothing a finished runtime owns points back at it, so dropping
    the last reference frees its file stores at once rather than at the
    cycle collector's next full pass."""
    arr, data, _ = simple()
    gc.collect()
    gc.disable()
    try:
        rt = PandaRuntime(n_compute=4, n_io=2)
        rt.run(write_array_app([arr], "ds", data))
        ref = weakref.ref(rt)
        del rt
        assert ref() is None
    finally:
        gc.enable()
