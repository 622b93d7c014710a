"""Tests for the MachineSpec cost model (Table 1 calibration)."""

import pytest

from repro.machine import KB, MB, NAS_SP2, MachineSpec, sp2


def test_table1_constants():
    spec = NAS_SP2
    assert spec.network_latency == pytest.approx(43e-6)
    assert spec.network_bandwidth == pytest.approx(34 * MB)
    assert spec.fs_read_peak == pytest.approx(2.85 * MB)
    assert spec.fs_write_peak == pytest.approx(2.23 * MB)
    assert spec.disk_transfer_rate == pytest.approx(3.0 * MB)
    assert spec.fs_block_size == 4 * KB
    assert spec.total_nodes == 160
    assert spec.node_memory == 128 * MB


def test_calibration_anchor_read():
    # at the 1 MB calibration request the model reproduces the measured
    # AIX read peak exactly
    thr = NAS_SP2.fs_effective_throughput(MB, write=False)
    assert thr == pytest.approx(2.85 * MB, rel=1e-9)


def test_calibration_anchor_write():
    thr = NAS_SP2.fs_effective_throughput(MB, write=True)
    assert thr == pytest.approx(2.23 * MB, rel=1e-9)


def test_small_requests_degrade():
    # the paper: AIX throughput declines for write sizes under 1 MB
    big = NAS_SP2.fs_effective_throughput(MB, write=True)
    half = NAS_SP2.fs_effective_throughput(MB // 2, write=True)
    tiny = NAS_SP2.fs_effective_throughput(64 * KB, write=True)
    assert tiny < half < big


def test_throughput_never_exceeds_raw_disk():
    for size in (MB, 4 * MB, 64 * MB):
        for write in (True, False):
            thr = NAS_SP2.fs_effective_throughput(size, write=write)
            assert thr < NAS_SP2.disk_transfer_rate


def test_seek_penalty_added_when_not_sequential():
    seq = NAS_SP2.fs_time(MB, write=True, sequential=True)
    rand = NAS_SP2.fs_time(MB, write=True, sequential=False)
    assert rand == pytest.approx(seq + NAS_SP2.disk_seek_time)


def test_fast_disk_zeroes_fs_time():
    fast = sp2(fast_disk=True)
    assert fast.fs_time(MB, write=True) == 0.0
    assert fast.fs_time(MB, write=False, sequential=False) == 0.0


def test_fast_disk_preserves_network():
    fast = sp2(fast_disk=True)
    assert fast.message_time(MB) == NAS_SP2.message_time(MB)


def test_message_time_latency_plus_transfer():
    t = NAS_SP2.message_time(MB)
    assert t == pytest.approx(43e-6 + MB / (34 * MB))


def test_message_time_small_message_is_latency_bound():
    t = NAS_SP2.message_time(256)
    assert t < 2 * NAS_SP2.network_latency


def test_copy_time_scales_with_runs():
    one = NAS_SP2.copy_time(MB, runs=1)
    many = NAS_SP2.copy_time(MB, runs=1000)
    assert many == pytest.approx(one + 999 * NAS_SP2.strided_run_overhead)


def test_evolve_creates_modified_copy():
    spec = sp2(network_bandwidth=100 * MB)
    assert spec.network_bandwidth == 100 * MB
    assert NAS_SP2.network_bandwidth == 34 * MB  # original untouched


def test_zero_byte_fs_request_is_free():
    assert NAS_SP2.fs_time(0, write=True) == 0.0


def test_invalid_spec_rejected():
    with pytest.raises(ValueError):
        MachineSpec(fs_read_peak=10 * MB, disk_transfer_rate=3 * MB)
    with pytest.raises(ValueError):
        MachineSpec(network_bandwidth=0)


@pytest.mark.parametrize("field", [
    "request_handling_overhead", "plan_formation_overhead",
    "strided_run_overhead", "disk_seek_time", "network_latency"])
@pytest.mark.parametrize("bad", [-1e-6, float("nan"), float("inf")])
def test_negative_or_non_finite_cost_rejected(field, bad):
    # a NaN overhead used to be accepted and silently charge nothing
    with pytest.raises(ValueError, match=field):
        sp2(**{field: bad})
    assert getattr(sp2(**{field: 0.0}), field) == 0.0


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan")])
def test_non_positive_memory_copy_rate_rejected(bad):
    with pytest.raises(ValueError, match="memory_copy_rate"):
        sp2(memory_copy_rate=bad)


def test_fs_overheads_are_positive_and_write_larger():
    # writes have more JFS overhead than reads (allocation, metadata)
    assert NAS_SP2.fs_write_overhead > NAS_SP2.fs_read_overhead > 0
