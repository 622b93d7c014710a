"""Remaining edge coverage: reconstruction guards and comm corners."""

import numpy as np
import pytest

from repro.core import Array, ArrayLayout, BLOCK, NONE, PandaRuntime
from repro.core.reconstruct import concatenate_server_files, reconstruct_array
from repro.machine import NAS_SP2
from repro.mpi import Network
from repro.sim import Simulator
from repro.workloads import distribute, make_global_array, write_array_app


# --- reconstruction guards ---------------------------------------------------

def written_runtime(n_io=2, multi=False, virtual=False):
    mem = ArrayLayout("mem", (2, 2))
    disk = ArrayLayout("disk", (n_io,))
    arrays = [Array("a", (8, 8), np.float64, mem, [BLOCK, BLOCK],
                    disk, [BLOCK, NONE])]
    if multi:
        arrays.append(Array("b", (8, 8), np.float64, mem, [BLOCK, BLOCK],
                            disk, [BLOCK, NONE]))
    g = make_global_array((8, 8))
    data = None
    if not virtual:
        data = {arr.name: distribute(g, arr.memory_schema) for arr in arrays}
    rt = PandaRuntime(n_compute=4, n_io=n_io, real_payloads=not virtual)
    rt.run(write_array_app(arrays, "ds", data))
    return rt, g


def test_reconstruct_requires_real_payloads():
    rt, _ = written_runtime(virtual=True)
    with pytest.raises(ValueError, match="real payloads"):
        reconstruct_array(rt, "ds", "a")


def test_reconstruct_unknown_array():
    rt, _ = written_runtime()
    with pytest.raises(KeyError):
        reconstruct_array(rt, "ds", "zzz")


def test_reconstruct_unknown_dataset():
    rt, _ = written_runtime()
    with pytest.raises(KeyError):
        reconstruct_array(rt, "nope", "a")


def test_concatenate_rejects_multi_array_dataset():
    rt, _ = written_runtime(multi=True)
    with pytest.raises(ValueError, match="single-array"):
        concatenate_server_files(rt, "ds")


def test_concatenate_rejects_virtual():
    rt, _ = written_runtime(virtual=True)
    with pytest.raises(ValueError, match="real payloads"):
        concatenate_server_files(rt, "ds")


def test_concatenate_rejects_wrapped_round_robin():
    """More disk chunks than servers wrap around, so the concatenation
    would interleave rounds."""
    mem = ArrayLayout("mem", (2, 2))
    disk = ArrayLayout("disk", (4,))  # 4 chunks...
    arr = Array("a", (8, 8), np.float64, mem, [BLOCK, BLOCK],
                disk, [BLOCK, NONE])
    g = make_global_array((8, 8))
    rt = PandaRuntime(n_compute=4, n_io=2)  # ...over 2 servers
    rt.run(write_array_app([arr], "ds",
                           {"a": distribute(g, arr.memory_schema)}))
    with pytest.raises(ValueError, match="wrap"):
        concatenate_server_files(rt, "ds")


def test_reconstruct_multi_array_each():
    rt, g = written_runtime(multi=True)
    np.testing.assert_array_equal(reconstruct_array(rt, "ds", "a"), g)
    np.testing.assert_array_equal(reconstruct_array(rt, "ds", "b"), g)


# --- comm corners -----------------------------------------------------------------

def test_compute_zero_is_free():
    sim = Simulator()
    net = Network(sim, NAS_SP2, 1)

    def proc(sim):
        yield from net.comm(0).compute(0.0)
        return sim.now

    assert sim.run_process(proc(sim)) == 0.0


def test_zero_byte_data_message():
    sim = Simulator()
    net = Network(sim, NAS_SP2, 2)

    def sender(sim):
        yield from net.comm(0).send(1, tag=0, payload=None, nbytes=0)

    def receiver(sim):
        msg = yield from net.comm(1).recv()
        return msg.nbytes

    p = sim.spawn(receiver(sim))
    sim.spawn(sender(sim))
    sim.run()
    # header-only wire size
    from repro.mpi.message import MESSAGE_HEADER_BYTES
    assert p.value == MESSAGE_HEADER_BYTES


def test_message_repr_and_serials_increase():
    from repro.mpi.message import Message

    a = Message(0, 1, 5, "x", 10)
    b = Message(1, 0, 6, "y", 20)
    assert b.serial > a.serial
    assert "0->1" in repr(a)
