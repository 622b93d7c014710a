"""Unit tests for Region geometry."""

import numpy as np
import pytest

from repro.schema import Region
from tests.oracles import iter_points


def test_from_shape():
    r = Region.from_shape((4, 5))
    assert r.lo == (0, 0)
    assert r.hi == (4, 5)
    assert r.shape == (4, 5)
    assert r.size == 20
    assert not r.empty


def test_empty_region():
    r = Region((2, 2), (2, 5))
    assert r.empty
    assert r.size == 0


def test_inverted_region_rejected():
    with pytest.raises(ValueError):
        Region((3,), (1,))


def test_rank_mismatch_rejected():
    with pytest.raises(ValueError):
        Region((0, 0), (1,))


def test_zero_rank_rejected():
    with pytest.raises(ValueError):
        Region((), ())


def test_intersect_overlapping():
    a = Region((0, 0), (4, 4))
    b = Region((2, 2), (6, 6))
    assert a.intersect(b) == Region((2, 2), (4, 4))
    assert b.intersect(a) == Region((2, 2), (4, 4))


def test_intersect_disjoint_returns_none():
    a = Region((0,), (4,))
    b = Region((4,), (8,))
    assert a.intersect(b) is None


def test_intersect_contained():
    outer = Region((0, 0), (10, 10))
    inner = Region((3, 3), (5, 5))
    assert outer.intersect(inner) == inner


def test_contains():
    outer = Region((0, 0), (10, 10))
    assert outer.contains(Region((0, 0), (10, 10)))
    assert outer.contains(Region((2, 3), (4, 5)))
    assert not outer.contains(Region((2, 3), (4, 11)))


def test_translate_and_relative_to_roundtrip():
    r = Region((5, 10), (8, 20))
    moved = r.translate((-5, -10))
    assert moved == Region((0, 0), (3, 10))
    assert r.relative_to((5, 10)) == moved
    assert moved.translate((5, 10)) == r


def test_slices():
    r = Region((1, 2), (3, 5))
    assert r.slices() == (slice(1, 3), slice(2, 5))


def offset_in(container, point):
    """The linear offset of ``point`` in ``container``: the one run of
    the one-point region there."""
    (off,), run_len = Region(point, tuple(p + 1 for p in point)).run_offsets(container)
    assert run_len == 1
    return off


def test_linear_offset_row_major():
    r = Region((0, 0), (3, 4))
    assert offset_in(r, (0, 0)) == 0
    assert offset_in(r, (0, 3)) == 3
    assert offset_in(r, (1, 0)) == 4
    assert offset_in(r, (2, 3)) == 11


def test_linear_offset_with_nonzero_origin():
    r = Region((10, 20), (13, 24))
    assert offset_in(r, (10, 20)) == 0
    assert offset_in(r, (11, 21)) == 5


def test_linear_offset_outside_raises():
    r = Region((0,), (4,))
    with pytest.raises(ValueError):
        offset_in(r, (4,))


def test_point_at_linear_offset_inverse():
    r = Region((2, 3, 1), (5, 7, 4))
    lo, hi = r.run_corners(np.arange(r.size), 1)
    assert (hi - lo == 1).all()
    assert [offset_in(r, tuple(p)) for p in lo.tolist()] == list(range(r.size))


def test_point_at_linear_offset_bounds():
    r = Region((0,), (4,))
    with pytest.raises(ValueError):
        r.run_corners(np.array([4]), 1)
    with pytest.raises(ValueError):
        r.run_corners(np.array([-1]), 1)


def test_runs_full_container_is_one_run():
    c = Region.from_shape((4, 5, 6))
    assert c.contiguous_runs_within(c) == (1, 120)


def test_runs_row_slab():
    c = Region.from_shape((8, 8, 8))
    slab = Region((2, 0, 0), (4, 8, 8))
    assert slab.contiguous_runs_within(c) == (1, 128)


def test_runs_partial_middle_dim():
    c = Region.from_shape((8, 8, 8))
    r = Region((0, 2, 0), (2, 4, 8))
    # full last dim, partial middle: runs split along dims 0 and the
    # merged (dim1 x dim2) suffix makes run length 2*8
    assert r.contiguous_runs_within(c) == (2, 16)


def test_runs_partial_last_dim():
    c = Region.from_shape((8, 8))
    r = Region((0, 2), (4, 6))
    assert r.contiguous_runs_within(c) == (4, 4)


def test_runs_single_column_is_worst_case():
    c = Region.from_shape((16, 16))
    col = Region((0, 5), (16, 6))
    assert col.contiguous_runs_within(c) == (16, 1)


def test_runs_rank_one():
    c = Region.from_shape((100,))
    r = Region((10,), (20,))
    assert r.contiguous_runs_within(c) == (1, 10)


def test_runs_product_equals_size():
    c = Region.from_shape((6, 7, 8))
    r = Region((1, 2, 3), (4, 6, 7))
    runs, length = r.contiguous_runs_within(c)
    assert runs * length == r.size


def test_runs_requires_containment():
    c = Region.from_shape((4, 4))
    with pytest.raises(ValueError):
        Region((0, 0), (5, 4)).contiguous_runs_within(c)


def test_iter_points_row_major_order():
    r = Region((0, 0), (2, 3))
    pts = list(iter_points(r))
    assert pts == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]


def test_iter_points_empty():
    assert list(iter_points(Region((0, 0), (0, 3)))) == []


def test_nbytes():
    assert Region.from_shape((4, 4)).nbytes(8) == 128


def test_hashable_and_equal():
    a = Region((0, 1), (2, 3))
    b = Region((0, 1), (2, 3))
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_iter_runs_merges_fully_spanned_suffix():
    """Trailing dimensions the region spans fully in the container merge
    with the first partial dimension into single long runs."""
    container = Region((0, 0, 0), (4, 6, 8))
    region = Region((1, 0, 0), (3, 6, 8))  # full in dims 1 and 2
    assert region.contiguous_runs_within(container) == (1, 96)
    offsets, run_len = region.run_offsets(container)
    assert (offsets.tolist(), run_len) == ([48], 96)


def test_iter_runs_partial_middle_dim_start_points():
    container = Region((0, 0, 0), (4, 6, 8))
    region = Region((1, 2, 0), (3, 5, 8))  # partial middle, full last
    offsets, run_len = region.run_offsets(container)
    # the fully-spanned last dim merges into one 3x8-element run per row
    assert (offsets.tolist(), run_len) == ([64, 112], 24)
    lo, hi = container.run_corners(offsets, run_len)
    assert lo.tolist() == [[1, 2, 0], [2, 2, 0]]
    assert hi.tolist() == [[2, 5, 8], [3, 5, 8]]
