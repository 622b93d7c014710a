"""Timing invariants of the simulated Panda: the properties the paper's
performance argument rests on, checked analytically where possible."""

import numpy as np
import pytest

from repro.bench.harness import run_panda_point
from repro.core import Array, ArrayLayout, PandaConfig, PandaRuntime
from repro.machine import MB, NAS_SP2, sp2
from repro.schema import BLOCK
from repro.workloads import mesh_for, write_array_app


def point(kind="write", n_cn=8, n_io=2, shape=(64, 64, 64), **kw):
    return run_panda_point(kind, n_cn, n_io, shape, **kw)


def test_elapsed_monotone_in_array_size():
    sizes = [(32, 64, 64), (64, 64, 64), (64, 128, 64), (64, 128, 128)]
    elapsed = [point(shape=s).elapsed for s in sizes]
    assert elapsed == sorted(elapsed)


def test_fast_disk_never_slower():
    for kind in ("read", "write"):
        real = point(kind=kind)
        fast = point(kind=kind, fast_disk=True)
        assert fast.elapsed < real.elapsed


def test_more_ionodes_never_slower():
    for n_io in (1, 2, 4):
        a = point(n_io=n_io).elapsed
        b = point(n_io=2 * n_io).elapsed
        assert b < a


def test_reads_faster_than_writes_on_real_disk():
    assert point(kind="read").elapsed < point(kind="write").elapsed


def test_write_elapsed_matches_analytic_model():
    """Natural chunking, balanced: elapsed ~= startup + (bytes per
    server) at the per-sub-chunk cycle rate.  The analytic cycle: fetch
    round trip + 1 MB transfer + staging copy + sequential 1 MB write."""
    n_io = 2
    shape = (64, 128, 128)  # 8 MB; 1 MB chunks; 4 subchunks per server
    p = point(n_io=n_io, shape=shape)
    spec = NAS_SP2
    sub = MB
    per_sub = (
        2 * spec.network_latency                       # request + reply latency
        + (sub + 64) / spec.network_bandwidth          # data transfer
        + 256 / spec.network_bandwidth                 # request wire
        + 2 * spec.request_handling_overhead           # client + server handling
        + spec.copy_time(sub, 1)                       # staging copy
        + spec.fs_time(sub, write=True)                # sequential write
    )
    bytes_per_server = 8 * MB / n_io
    predicted = bytes_per_server / sub * per_sub
    # within 10%: startup, fsync, first-seek and completion add the rest
    assert p.elapsed == pytest.approx(predicted, rel=0.10)
    assert p.elapsed > predicted  # the extras are strictly positive


def test_virtual_and_real_payloads_time_identically():
    mem = ArrayLayout("mem", (2, 2))
    arr = Array("a", (32, 32), np.float64, mem, [BLOCK, BLOCK])
    times = []
    for real in (True, False):
        rt = PandaRuntime(n_compute=4, n_io=2, real_payloads=real)
        if real:
            from repro.workloads import distribute, make_global_array
            g = make_global_array((32, 32))
            data = {"a": distribute(g, arr.memory_schema)}
            res = rt.run(write_array_app([arr], "x", data))
        else:
            res = rt.run(write_array_app([arr], "x"))
        times.append(res.ops[0].elapsed)
    assert times[0] == pytest.approx(times[1], rel=1e-12)


def test_deterministic_repeatability():
    a = point(shape=(64, 128, 128)).elapsed
    b = point(shape=(64, 128, 128)).elapsed
    assert a == b


def test_reorganisation_costs_more_on_fast_disk():
    nat = point(n_cn=16, n_io=4, shape=(64, 128, 128),
                disk_schema="natural", fast_disk=True)
    trad = point(n_cn=16, n_io=4, shape=(64, 128, 128),
                 disk_schema="traditional", fast_disk=True)
    assert trad.elapsed > nat.elapsed


def test_higher_bandwidth_machine_speeds_up_fast_disk_runs():
    arr = Array("a", (64, 64, 64), np.float64,
                ArrayLayout("mem", mesh_for(8)), [BLOCK] * 3)

    def elapsed(spec):
        rt = PandaRuntime(n_compute=8, n_io=2,
                          spec=spec.evolve(fast_disk=True),
                          real_payloads=False)
        return rt.run(write_array_app([arr], "x")).ops[-1].elapsed

    assert elapsed(sp2(network_bandwidth=100 * MB)) < elapsed(NAS_SP2)


def test_smaller_subchunks_cost_more_messages_and_time():
    big = point(config=PandaConfig(sub_chunk_bytes=MB))
    small = point(config=PandaConfig(sub_chunk_bytes=64 * 1024))
    assert small.elapsed > big.elapsed


def test_op_elapsed_is_max_over_clients():
    """The paper's elapsed-time definition: the record spans from the
    first client's entry to the last client's exit."""
    mem = ArrayLayout("mem", (4,))
    arr = Array("a", (64,), np.float64, mem, [BLOCK])

    def app(ctx):
        # stagger entries: rank r arrives r ms late
        yield from ctx.compute(ctx.rank * 1e-3)
        ctx.bind(arr)
        from repro.core.api import ArrayGroup
        g = ArrayGroup("g")
        g.include(arr)
        yield from g.write(ctx, "x")

    rt = PandaRuntime(n_compute=4, n_io=1, real_payloads=False)
    res = rt.run(app)
    op = res.ops[0]
    assert len(op.enters) == 4 and len(op.leaves) == 4
    assert op.start == pytest.approx(min(op.enters.values()))
    assert op.end == pytest.approx(max(op.leaves.values()))
    assert op.elapsed >= 3e-3  # includes the staggering


def test_clients_wait_for_straggler():
    """Panda 'assumes all clients will participate at approximately the
    same time' but does not require a prior barrier: a late client just
    delays the fetches that target it."""
    mem = ArrayLayout("mem", (2,))
    arr = Array("a", (8,), np.float64, mem, [BLOCK])
    delay = 0.5

    def app(ctx):
        if ctx.rank == 1:
            yield from ctx.compute(delay)
        ctx.bind(arr)
        from repro.core.api import ArrayGroup
        g = ArrayGroup("g")
        g.include(arr)
        yield from g.write(ctx, "x")

    rt = PandaRuntime(n_compute=2, n_io=1, real_payloads=False)
    res = rt.run(app)
    assert res.ops[0].elapsed > delay


def test_paper_24_compute_node_configuration():
    """Figures 7/8 include 24 compute nodes (6x2x2 mesh), which divides
    the 128-row leading extent unevenly (HPF ceil blocks of 22 rows,
    last block short).  The run must work and stay in the figures'
    band."""
    p = point(kind="write", n_cn=24, n_io=6, shape=(128, 128, 128),
              disk_schema="traditional")
    assert mesh_for(24) == (6, 2, 2)
    assert 0.60 <= p.normalized() <= 0.99


def test_top_level_package_api():
    import repro

    assert repro.__version__ == "2.0.0"
    assert repro.NAS_SP2.network_bandwidth == 34 * repro.MB
    runtime = repro.PandaRuntime(n_compute=2, n_io=1)
    assert runtime.n_compute == 2
