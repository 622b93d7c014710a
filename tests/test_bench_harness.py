"""Tests for the benchmark harness, experiment grid and reporting."""

import pytest

from repro import memo
from repro.bench import (
    EXPERIMENTS,
    PointResult,
    experiment,
    format_figure,
    format_rows,
    run_figure,
    run_panda_point,
    shape_for_mb,
)
from repro.bench.harness import build_array
from repro.machine import MB, NAS_SP2


# --- experiment definitions --------------------------------------------------

def test_every_figure_defined():
    assert set(EXPERIMENTS) == {f"fig{i}" for i in range(3, 10)}


def test_experiment_grids_match_paper():
    assert experiment("fig3").n_compute == 8
    assert experiment("fig5").n_compute == 32
    assert experiment("fig9").n_compute == 16
    assert experiment("fig7").ionodes == (2, 4, 6, 8)
    assert experiment("fig3").ionodes == (2, 4, 8)
    for e in EXPERIMENTS.values():
        assert e.sizes_mb == (16, 32, 64, 128, 256, 512)


def test_shapes_have_exact_sizes():
    for mb in (16, 32, 64, 128, 256, 512):
        s = shape_for_mb(mb)
        assert s[0] * s[1] * s[2] * 8 == mb * MB


def test_shape_for_unknown_size():
    with pytest.raises(ValueError):
        shape_for_mb(48)


def test_fast_disk_flags():
    assert experiment("fig5").fast_disk
    assert experiment("fig6").fast_disk
    assert experiment("fig9").fast_disk
    assert not experiment("fig3").fast_disk


# --- build_array ----------------------------------------------------------------

def test_build_array_natural():
    a = build_array((128, 128, 128), 8, 4, "natural")
    assert a.natural_chunking
    assert a.memory_schema.mesh.dims == (2, 2, 2)


def test_build_array_traditional():
    a = build_array((128, 128, 128), 8, 4, "traditional")
    assert not a.natural_chunking
    assert a.disk_schema.mesh.dims == (4,)
    assert [d.kind for d in a.disk_schema.dists] == ["BLOCK", "NONE", "NONE"]


def test_build_array_bad_schema():
    with pytest.raises(ValueError):
        build_array((8, 8, 8), 8, 2, "zigzag")


# --- point runner ------------------------------------------------------------------

def test_point_metrics():
    p = run_panda_point("write", 8, 2, (64, 64, 64))
    assert p.array_bytes == 2 * MB
    assert p.aggregate == pytest.approx(p.array_bytes / p.elapsed)
    assert p.normalized() == pytest.approx(
        p.aggregate / 2 / NAS_SP2.fs_write_peak
    )


def test_point_peak_selection():
    w = PointResult("write", 8, 2, MB, "natural", False, 1.0)
    r = PointResult("read", 8, 2, MB, "natural", False, 1.0)
    f = PointResult("read", 8, 2, MB, "natural", True, 1.0)
    assert w.peak() == NAS_SP2.fs_write_peak
    assert r.peak() == NAS_SP2.fs_read_peak
    assert f.peak() == NAS_SP2.network_bandwidth


def test_point_rejects_bad_kind():
    with pytest.raises(ValueError):
        run_panda_point("append", 8, 2, (8, 8, 8))


def test_read_point_reads_what_was_written():
    # must not raise FileNotFoundError: the harness pre-writes
    p = run_panda_point("read", 8, 2, (32, 32, 32))
    assert p.elapsed > 0


def test_multi_array_point_scales_bytes():
    one = run_panda_point("write", 8, 2, (32, 32, 32), n_arrays=1)
    three = run_panda_point("write", 8, 2, (32, 32, 32), n_arrays=3)
    assert three.array_bytes == 3 * one.array_bytes


def test_run_figure_tiny_grid():
    exp = experiment("fig4")
    # shrink: one size, two ionode counts, by constructing a stub
    from dataclasses import replace
    small = replace(exp, sizes_mb=(16,), ionodes=(2, 4))
    grid = run_figure(small)
    assert set(grid) == {16}
    assert set(grid[16]) == {2, 4}
    assert grid[16][4].aggregate > grid[16][2].aggregate


# --- reporting ----------------------------------------------------------------------

def test_format_rows_alignment():
    out = format_rows([["a", "1.0"], ["bb", "22.0"]], ["name", "value"])
    lines = out.splitlines()
    assert len(lines) == 4  # header, rule, two rows
    widths = {len(l) for l in lines}
    assert len(widths) == 1  # all lines equal width


def test_format_figure_contains_all_cells():
    p = PointResult("write", 8, 2, 16 * MB, "natural", False, 2.0)
    q = PointResult("write", 8, 4, 16 * MB, "natural", False, 1.0)
    text = format_figure("figX", "demo", {16: {2: p, 4: q}})
    assert "figX: demo" in text
    assert "aggregate throughput" in text
    assert "normalized throughput" in text
    assert "16 MB" in text
    assert "2 ionodes" in text and "4 ionodes" in text
    assert f"{q.aggregate_mbps:.2f}" in text


# --- counter hygiene ----------------------------------------------------------------


def test_back_to_back_points_report_identical_counters():
    """Counters are global and additive; PointResult must report the
    delta for its own timed run only.  Two identical points run
    back-to-back in one process (warm memo caches and all) therefore
    report byte-identical counter deltas -- any bleed from the first run
    into the second shows up as a mismatch here."""
    results = []
    for _ in range(2):
        # cold memos each time: the second point must not look cheaper
        # merely because the first populated the geometry/plan caches
        memo.clear_all()
        results.append(run_panda_point("write", 8, 2, (32, 32, 32)))
    r1, r2 = results
    assert r1.counters["events_scheduled"] > 0
    assert r1.counters["events_fastpath"] > 0
    assert r1.counters == r2.counters
    # and the simulated result is identical too, of course
    assert r1.elapsed == r2.elapsed
