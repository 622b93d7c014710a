"""Tests for SequentialPanda: chunked array storage on one workstation,
and the paper's section-1 locality claim."""

import numpy as np
import pytest

from repro.core.sequential import SequentialPanda, row_major_schema
from repro.machine import sp2
from repro.schema import DataSchema, Region
from repro.workloads import make_global_array


def cubic_schema(shape, parts):
    return DataSchema.build(shape, (parts,) * len(shape),
                            ["BLOCK"] * len(shape))


def test_store_load_roundtrip_row_major():
    sp = SequentialPanda()
    g = make_global_array((8, 8, 8))
    sp.store("a", g, row_major_schema(g.shape))
    out, stats = sp.load("a")
    np.testing.assert_array_equal(out, g)
    assert stats.bytes_read == g.nbytes


def test_store_load_roundtrip_chunked():
    sp = SequentialPanda()
    g = make_global_array((8, 8, 8))
    sp.store("a", g, cubic_schema(g.shape, 2))
    out, _ = sp.load("a")
    np.testing.assert_array_equal(out, g)


@pytest.mark.parametrize("region", [
    Region((2, 2, 2), (6, 6, 6)),
    Region((0, 0, 0), (1, 8, 8)),
    Region((3, 0, 5), (4, 8, 6)),
    Region((0, 0, 0), (8, 8, 8)),
])
def test_subarray_reads_are_exact(region):
    sp = SequentialPanda()
    g = make_global_array((8, 8, 8))
    sp.store("a", g, cubic_schema(g.shape, 2))
    out, stats = sp.load_subarray("a", region)
    np.testing.assert_array_equal(out, g[region.slices()])
    assert stats.requests >= 1


def test_subarray_from_row_major_is_exact_too():
    sp = SequentialPanda()
    g = make_global_array((8, 8, 8))
    sp.store("a", g, row_major_schema(g.shape))
    region = Region((2, 3, 1), (5, 6, 7))
    out, _ = sp.load_subarray("a", region)
    np.testing.assert_array_equal(out, g[region.slices()])


def test_chunked_schema_needs_fewer_requests_for_cubic_working_set():
    """The section-1 claim, on real geometry: a cubic working set from
    a suitably chunked layout costs far fewer disk requests than from
    the traditional row-major layout."""
    shape = (16, 16, 16)
    g = make_global_array(shape)
    region = Region((4, 4, 4), (12, 12, 12))  # 8^3 working set

    sp_rm = SequentialPanda()
    sp_rm.store("a", g, row_major_schema(shape))
    out_rm, stats_rm = sp_rm.load_subarray("a", region)
    # row-major: one request per (i, j) row = 64 scattered runs of 8
    assert stats_rm.requests == 64

    sp_ch = SequentialPanda()
    sp_ch.store("a", g, cubic_schema(shape, 4))  # 4^3 chunks
    out_ch, stats_ch = sp_ch.load_subarray("a", region)
    # chunked, aligned: 8 whole chunks, one request each
    assert stats_ch.requests == 8

    np.testing.assert_array_equal(out_rm, out_ch)
    assert stats_ch.elapsed < stats_rm.elapsed


def test_chunk_size_must_suit_the_working_set():
    """The honest counterpoint the paper's 'typically' hedges: a
    working set that straddles *large* chunks in every dimension can
    cost more requests than row-major -- the schema choice matters,
    which is exactly why Panda lets the user declare it."""
    shape = (16, 16, 16)
    region = Region((4, 4, 4), (12, 12, 12))
    sp_big = SequentialPanda(real=False)
    sp_big.store("a", None, cubic_schema(shape, 2))  # 8^3 chunks, unaligned
    _, stats_big = sp_big.load_subarray("a", region)
    sp_rm = SequentialPanda(real=False)
    sp_rm.store("a", None, row_major_schema(shape))
    _, stats_rm = sp_rm.load_subarray("a", region)
    assert stats_big.requests > stats_rm.requests  # 128 vs 64


def test_aligned_working_set_is_one_request_per_chunk():
    shape = (16, 16, 16)
    sp = SequentialPanda(real=False)
    sp.store("a", None, cubic_schema(shape, 2))
    # exactly one chunk
    out, stats = sp.load_subarray("a", Region((0, 0, 0), (8, 8, 8)))
    assert stats.requests == 1


def test_full_scan_throughput_near_peak():
    spec = sp2()
    sp = SequentialPanda(spec=spec, real=False)
    shape = (64, 64, 64)  # 2 MB
    sp.store("a", None, row_major_schema(shape))
    _, stats = sp.load("a")
    assert stats.throughput > 0.9 * spec.fs_read_peak


def test_virtual_mode_counts_without_bytes():
    sp = SequentialPanda(real=False)
    sp.store("a", None, cubic_schema((8, 8, 8), 2))
    out, stats = sp.load_subarray("a", Region((0, 0, 0), (4, 4, 4)))
    assert out is None
    assert stats.bytes_read == 4 * 4 * 4 * 8


def test_working_set_bounds_checked():
    sp = SequentialPanda(real=False)
    sp.store("a", None, cubic_schema((8, 8, 8), 2))
    with pytest.raises(ValueError):
        sp.load_subarray("a", Region((0, 0, 0), (9, 8, 8)))


def test_unknown_array():
    sp = SequentialPanda()
    with pytest.raises(KeyError):
        sp.load("nope")


def test_store_shape_mismatch():
    sp = SequentialPanda()
    with pytest.raises(ValueError):
        sp.store("a", np.zeros((4, 4)), row_major_schema((8, 8)))
