"""Tests for post-run utilization statistics."""


from repro.baselines import BaselineRuntime, run_naive_striping
from repro.bench.harness import build_array
from repro.bench.stats import utilization
from repro.core import PandaRuntime
from repro.machine import sp2
from repro.workloads import write_array_app


def run_write(n_io=2, fast_disk=False, shape=(64, 128, 128)):
    arr = build_array(shape, 8, n_io, "natural")
    rt = PandaRuntime(n_compute=8, n_io=n_io, real_payloads=False,
                      spec=sp2(fast_disk=fast_disk))
    rt.run(write_array_app([arr], "x"))
    return rt, arr


def test_disk_bound_run_shows_high_disk_utilization():
    rt, arr = run_write()
    stats = utilization(rt)
    assert all(u > 0.85 for u in stats.disk_utilization)
    assert sum(stats.disk_written) == arr.nbytes


def test_fast_disk_run_shows_zero_disk_busy():
    rt, _ = run_write(fast_disk=True)
    stats = utilization(rt)
    assert all(b == 0.0 for b in stats.disk_busy)
    assert stats.messages > 0


def test_sequential_fraction_is_nearly_one_for_panda():
    rt, _ = run_write(shape=(128, 256, 256))  # 32 requests per server
    stats = utilization(rt)
    # only the very first request per server lacks a head position
    assert all(s >= 31 / 32 for s in stats.sequential_fraction)


def test_network_accounting_includes_data_volume():
    rt, arr = run_write()
    stats = utilization(rt)
    assert stats.network_bytes > arr.nbytes  # data + control


def test_naive_baseline_shows_poor_sequentiality():
    spec = build_array((32, 32, 32), 8, 2, "natural").spec()
    rt = BaselineRuntime(8, 2, real_payloads=False, stripe_bytes=8 * 1024)
    run_naive_striping(rt, spec, "write")
    stats = utilization(rt)
    assert all(s < 0.6 for s in stats.sequential_fraction)


def test_summary_renders():
    rt, _ = run_write()
    s = utilization(rt).summary()
    assert "disk util" in s and "messages" in s


def test_total_disk_bytes():
    rt, arr = run_write()
    stats = utilization(rt)
    assert sum(stats.disk_written) == arr.nbytes
    assert sum(stats.disk_read) == 0  # write only, no reads
