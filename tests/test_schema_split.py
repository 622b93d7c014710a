"""Unit tests for sub-chunking (split_row_major)."""

import pytest

from repro.schema import Region, split_row_major


def linear_spans(region, pieces):
    """(start, end) linear offsets of each piece within region."""
    spans = []
    for p in pieces:
        start = int(p.run_offsets(region)[0][0])
        spans.append((start, start + p.size))
    return spans


def test_small_region_single_piece():
    r = Region.from_shape((4, 4))
    assert split_row_major(r, 100) == [r]


def test_exact_fit_single_piece():
    r = Region.from_shape((4, 4))
    assert split_row_major(r, 16) == [r]


def test_split_along_leading_dim():
    r = Region.from_shape((8, 4))
    pieces = split_row_major(r, 8)  # 2 rows of 4 per piece
    assert len(pieces) == 4
    assert pieces[0] == Region((0, 0), (2, 4))
    assert pieces[-1] == Region((6, 0), (8, 4))


def test_split_recurses_when_slab_too_large():
    r = Region.from_shape((2, 100))
    pieces = split_row_major(r, 30)
    assert all(p.size <= 30 for p in pieces)
    assert sum(p.size for p in pieces) == 200
    # each piece confined to one row
    assert all(p.hi[0] - p.lo[0] == 1 for p in pieces)


def test_pieces_are_consecutive_row_major_spans():
    r = Region((3, 5, 1), (9, 12, 4))
    pieces = split_row_major(r, 17)
    spans = linear_spans(r, pieces)
    assert spans[0][0] == 0
    for (s0, e0), (s1, _) in zip(spans, spans[1:]):
        assert s1 == e0
    assert spans[-1][1] == r.size


def test_each_piece_is_one_contiguous_run_of_region():
    r = Region.from_shape((6, 5, 4))
    for max_elems in (1, 3, 7, 19, 21, 60, 120):
        for p in split_row_major(r, max_elems):
            runs, _ = p.contiguous_runs_within(r)
            assert runs == 1, (max_elems, p)


def test_max_elems_one_gives_unit_pieces():
    r = Region.from_shape((2, 3))
    pieces = split_row_major(r, 1)
    assert len(pieces) == 6
    assert all(p.size == 1 for p in pieces)


def test_empty_region_gives_no_pieces():
    assert split_row_major(Region((0, 0), (0, 4)), 10) == []


def test_invalid_max_elems():
    with pytest.raises(ValueError):
        split_row_major(Region.from_shape((2,)), 0)


def test_pieces_tile_region_exactly():
    r = Region((1, 2), (7, 11))
    pieces = split_row_major(r, 10)
    points = set()
    for p in pieces:
        for pt in p.iter_points():
            assert pt not in points, "overlap"
            points.add(pt)
    assert points == set(r.iter_points())


def test_1mb_subchunking_of_large_chunk():
    """The paper's configuration: a 64 MB chunk of doubles sub-chunked
    at 1 MB boundaries -> 64 pieces."""
    itemsize = 8
    max_elems = (1 << 20) // itemsize
    # 2 MB-per-row slab: 256 x 512 x 64 doubles = 8M elements = 64 MB
    r = Region.from_shape((256, 512, 64))
    pieces = split_row_major(r, max_elems)
    assert len(pieces) == 64
    assert all(p.size == max_elems for p in pieces)
