"""Unit tests for the message-passing substrate."""

import pytest

from repro.counters import COUNTERS
from repro.machine import MB, NAS_SP2, sp2
from repro.mpi import CONTROL_MESSAGE_BYTES, DataBlock, Network
from repro.mpi.message import MESSAGE_HEADER_BYTES
from repro.sim import Simulator, Trace

import numpy as np


def make_net(n=4, spec=NAS_SP2, trace=None):
    sim = Simulator()
    net = Network(sim, spec, n, trace=trace)
    return sim, net


# --- DataBlock --------------------------------------------------------------

def test_datablock_real():
    arr = np.arange(10, dtype=np.float64)
    b = DataBlock.real(arr)
    assert b.is_real
    assert b.nbytes == 80
    assert b.to_bytes() == arr.tobytes()


def test_datablock_virtual():
    b = DataBlock.virtual(1024)
    assert not b.is_real
    assert b.nbytes == 1024
    with pytest.raises(ValueError):
        b.to_bytes()


def test_datablock_validation():
    with pytest.raises(ValueError):
        DataBlock.virtual(-1)
    with pytest.raises(ValueError):
        DataBlock(5, np.zeros(10, dtype=np.uint8))


def test_datablock_makes_contiguous():
    """A block keeps the strided view it is given -- a piece travels
    unpacked -- and packs it into row-major bytes only for
    ``to_buffer``."""
    arr = np.arange(16, dtype=np.int32).reshape(4, 4).T  # non-contiguous
    b = DataBlock.real(arr)
    assert b.array is arr and b.nbytes == 64
    buf = b.to_buffer()
    assert buf.readonly and bytes(buf) == np.ascontiguousarray(arr).tobytes()


def test_datablock_to_buffer_counts_only_a_pack():
    before = COUNTERS.bytes_copied
    flat = np.arange(16, dtype=np.int32)
    view = DataBlock.real(flat).to_buffer()
    assert COUNTERS.bytes_copied == before
    assert np.shares_memory(np.frombuffer(view, dtype=np.int32), flat)
    DataBlock.real(flat.reshape(4, 4)[:, :2]).to_buffer()  # strided
    assert COUNTERS.bytes_copied == before + 32


# --- point to point -----------------------------------------------------------

def test_send_recv_roundtrip():
    sim, net = make_net()
    c0, c1 = net.comm(0), net.comm(1)
    got = []

    def sender(sim):
        yield from c0.send(1, tag=7, payload={"x": 1})

    def receiver(sim):
        msg = yield from c1.recv(tag=7)
        got.append(msg)

    sim.spawn(sender(sim))
    sim.spawn(receiver(sim))
    sim.run()
    assert got[0].payload == {"x": 1}
    assert got[0].src == 0 and got[0].dst == 1 and got[0].tag == 7


def test_message_timing_latency_plus_bandwidth():
    sim, net = make_net()
    c0, c1 = net.comm(0), net.comm(1)

    def sender(sim):
        yield from c0.send(1, tag=0, payload=None, nbytes=MB)

    def receiver(sim):
        msg = yield from c1.recv()
        return sim.now

    p = sim.spawn(receiver(sim))
    sim.spawn(sender(sim))
    sim.run()
    expected = (MB + MESSAGE_HEADER_BYTES) / NAS_SP2.network_bandwidth + NAS_SP2.network_latency
    assert p.value == pytest.approx(expected, rel=1e-9)


def test_blocking_send_returns_before_delivery():
    """Sender is free once the transfer leaves the link; the receiver
    sees it one latency later."""
    sim, net = make_net()
    c0, c1 = net.comm(0), net.comm(1)
    times = {}

    def sender(sim):
        yield from c0.send(1, tag=0, nbytes=MB)
        times["send_done"] = sim.now

    def receiver(sim):
        yield from c1.recv()
        times["recv_done"] = sim.now

    sim.spawn(sender(sim))
    sim.spawn(receiver(sim))
    sim.run()
    assert times["recv_done"] == pytest.approx(
        times["send_done"] + NAS_SP2.network_latency
    )


def test_ping_pong_matches_table1_model():
    sim, net = make_net()
    c0, c1 = net.comm(0), net.comm(1)

    def rank0(sim):
        yield from c0.send(1, tag=1, nbytes=0)
        yield from c0.recv(tag=2)
        return sim.now

    def rank1(sim):
        yield from c1.recv(tag=1)
        yield from c1.send(0, tag=2, nbytes=0)

    p = sim.spawn(rank0(sim))
    sim.spawn(rank1(sim))
    sim.run()
    # round trip = 2 x (latency + header transfer)
    expected = 2 * (NAS_SP2.network_latency + MESSAGE_HEADER_BYTES / NAS_SP2.network_bandwidth)
    assert p.value == pytest.approx(expected, rel=1e-9)


def test_sender_out_link_serialises_two_sends():
    sim, net = make_net()
    c0 = net.comm(0)
    done = []

    def sender(sim):
        yield from c0.send(1, tag=0, nbytes=MB)
        done.append(sim.now)
        yield from c0.send(2, tag=0, nbytes=MB)
        done.append(sim.now)

    def receiver(rank):
        def proc(sim):
            yield from net.comm(rank).recv()
        return proc(sim)

    sim.spawn(sender(sim))
    sim.spawn(receiver(1))
    sim.spawn(receiver(2))
    sim.run()
    t = (MB + MESSAGE_HEADER_BYTES) / NAS_SP2.network_bandwidth
    assert done[0] == pytest.approx(t, rel=1e-9)
    assert done[1] == pytest.approx(2 * t, rel=1e-9)


def test_receiver_in_link_serialises_concurrent_senders():
    sim, net = make_net()
    arrivals = []

    def sender(rank):
        def proc(sim):
            yield from net.comm(rank).send(0, tag=0, nbytes=MB)
        return proc(sim)

    def receiver(sim):
        for _ in range(2):
            msg = yield from net.comm(0).recv()
            arrivals.append(sim.now)

    sim.spawn(receiver(sim))
    sim.spawn(sender(1))
    sim.spawn(sender(2))
    sim.run()
    t = (MB + MESSAGE_HEADER_BYTES) / NAS_SP2.network_bandwidth
    assert arrivals[0] == pytest.approx(t + NAS_SP2.network_latency, rel=1e-9)
    assert arrivals[1] == pytest.approx(2 * t + NAS_SP2.network_latency, rel=1e-9)


def test_disjoint_pairs_transfer_in_parallel():
    sim, net = make_net(4)
    finish = []

    def pair(src, dst):
        def s(sim):
            # a blocking send has no delivery event to hand back
            assert (yield from net.comm(src).send(dst, tag=0, nbytes=MB)) is None
        def r(sim):
            yield from net.comm(dst).recv()
            finish.append(sim.now)
        return s, r

    for s, d in [(0, 1), (2, 3)]:
        sf, rf = pair(s, d)
        sim.spawn(sf(sim))
        sim.spawn(rf(sim))
    sim.run()
    t = (MB + MESSAGE_HEADER_BYTES) / NAS_SP2.network_bandwidth + NAS_SP2.network_latency
    assert finish == pytest.approx([t, t], rel=1e-9)


def test_recv_matches_source_and_tag_fifo():
    sim, net = make_net(3)
    got = []

    def senders(sim):
        yield from net.comm(1).send(0, tag=5, payload="one-five")
        yield from net.comm(1).send(0, tag=6, payload="one-six")

    def sender2(sim):
        yield from net.comm(2).send(0, tag=5, payload="two-five")

    def receiver(sim):
        m1 = yield from net.comm(0).recv(src=2, tag=5)
        m2 = yield from net.comm(0).recv(tag=5)
        m3 = yield from net.comm(0).recv(tags={6, 7})
        got.extend([m1.payload, m2.payload, m3.payload])

    sim.spawn(receiver(sim))
    sim.spawn(senders(sim))
    sim.spawn(sender2(sim))
    sim.run()
    assert got == ["two-five", "one-five", "one-six"]


def test_recv_tag_and_tags_exclusive():
    sim, net = make_net()
    gen = net.comm(0).recv(tag=1, tags={2})
    with pytest.raises(ValueError):
        next(gen)


def test_self_send_rejected():
    sim, net = make_net()

    def proc(sim):
        yield from net.comm(0).send(0, tag=0)

    with pytest.raises(Exception):
        sim.run_process(proc(sim))


def test_rank_bounds():
    sim, net = make_net(2)
    with pytest.raises(ValueError):
        net.comm(2)
    with pytest.raises(ValueError):
        net.comm(-1)


def test_control_message_default_size():
    sim, net = make_net()
    sizes = []

    def sender(sim):
        yield from net.comm(0).send(1, tag=0, payload="ctl")

    def receiver(sim):
        msg = yield from net.comm(1).recv()
        sizes.append(msg.nbytes)

    sim.spawn(sender(sim))
    sim.spawn(receiver(sim))
    sim.run()
    assert sizes == [CONTROL_MESSAGE_BYTES]


def test_network_accounting_and_trace():
    trace = Trace()
    sim, net = make_net(trace=trace)

    def sender(sim):
        yield from net.comm(0).send(1, tag=0, nbytes=1000)

    def receiver(sim):
        yield from net.comm(1).recv()

    sim.spawn(sender(sim))
    sim.spawn(receiver(sim))
    sim.run()
    assert net.messages_sent == 1
    assert net.bytes_sent == 1000 + MESSAGE_HEADER_BYTES
    msgs = trace.select(kind="message")
    assert len(msgs) == 1
    assert msgs[0]["src"] == 0 and msgs[0]["dst"] == 1


def test_bcast_send_reaches_every_other_rank():
    sim, net = make_net(4)
    received = []

    def root(sim):
        yield from net.comm(0).bcast_send(range(4), tag=9, payload="go")

    def worker(rank):
        def proc(sim):
            msg = yield from net.comm(rank).recv(tag=9)
            received.append((rank, msg.payload))
        return proc(sim)

    sim.spawn(root(sim))
    for r in (1, 2, 3):
        sim.spawn(worker(r))
    sim.run()
    # the root skips its own rank
    assert sorted(received) == [(1, "go"), (2, "go"), (3, "go")]


def test_compute_and_handle_charges():
    sim, net = make_net()

    def proc(sim):
        yield from net.comm(0).compute(0.5)
        yield net.comm(0).handle_s
        yield net.comm(0).copy_s(MB, runs=2)
        return sim.now

    expected = 0.5 + NAS_SP2.request_handling_overhead + NAS_SP2.copy_time(MB, 2)
    assert sim.run_process(proc(sim)) == pytest.approx(expected)


def test_bandwidth_override_respected():
    fast = sp2(network_bandwidth=100 * MB)
    sim = Simulator()
    net = Network(sim, fast, 2)

    def sender(sim):
        yield from net.comm(0).send(1, tag=0, nbytes=MB)
        return sim.now

    def receiver(sim):
        yield from net.comm(1).recv()

    p = sim.spawn(sender(sim))
    sim.spawn(receiver(sim))
    sim.run()
    assert p.value == pytest.approx((MB + MESSAGE_HEADER_BYTES) / (100 * MB), rel=1e-9)
