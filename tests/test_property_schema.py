"""Property-based tests (hypothesis) for the schema algebra.

These pin the invariants everything else relies on: regions intersect
soundly, linearisation is a bijection, chunk enumeration partitions the
array, sub-chunk splitting tiles chunks with consecutive row-major
spans, and the run rule (``Region.run_offsets``) agrees with per-point
enumeration and brute force.
"""

import numpy as np
from hypothesis import given, strategies as st

from repro.schema import (
    BLOCK,
    DataSchema,
    Mesh,
    NONE,
    Region,
    split_row_major,
)
from tests.oracles import iter_points

# --- strategies ------------------------------------------------------------

dims = st.integers(min_value=1, max_value=9)
shapes = st.lists(dims, min_size=1, max_size=4).map(tuple)


@st.composite
def regions_in(draw, shape):
    lo = tuple(draw(st.integers(0, s - 1)) for s in shape)
    hi = tuple(draw(st.integers(l + 1, s)) for l, s in zip(lo, shape))
    return Region(lo, hi)


@st.composite
def nested(draw):
    """A container anywhere in a shape and a region inside it, which
    may be empty and is the whole container a quarter of the time."""
    container = draw(shapes.flatmap(regions_in))
    if draw(st.integers(0, 3)) == 0:
        return container, container
    lo = tuple(draw(st.integers(l, h)) for l, h in zip(container.lo, container.hi))
    hi = tuple(draw(st.integers(l, h)) for l, h in zip(lo, container.hi))
    return container, Region(lo, hi)


def linear(container, point):
    """Row-major linear offset of ``point`` within ``container``: the
    per-point oracle the run rule is checked against."""
    off = 0
    for l, h, p in zip(container.lo, container.hi, point):
        off = off * (h - l) + (p - l)
    return off


@st.composite
def region_pairs(draw):
    shape = draw(shapes)
    return shape, draw(regions_in(shape)), draw(regions_in(shape))


@st.composite
def schemas(draw):
    shape = draw(shapes)
    dists = []
    mesh_dims = []
    for extent in shape:
        if draw(st.booleans()):
            dists.append(BLOCK)
            mesh_dims.append(draw(st.integers(1, 4)))
        else:
            dists.append(NONE)
    if not mesh_dims:  # need at least one distributed dim for a mesh
        dists[0] = BLOCK
        mesh_dims.append(draw(st.integers(1, 4)))
    return DataSchema(tuple(shape), Mesh(tuple(mesh_dims)), tuple(dists))


# --- region properties ----------------------------------------------------------

@given(region_pairs())
def test_intersection_is_exactly_the_common_points(pair):
    _shape, a, b = pair
    inter = a.intersect(b)
    common = set(iter_points(a)) & set(iter_points(b))
    if inter is None:
        assert not common
    else:
        assert set(iter_points(inter)) == common


@given(region_pairs())
def test_intersection_commutes(pair):
    _shape, a, b = pair
    assert a.intersect(b) == b.intersect(a)


@given(shapes.flatmap(lambda s: regions_in(s)))
def test_linearisation_is_a_bijection(region):
    # the one-point region at a point is one run, at the point's offset;
    # the corners of one-element runs are the points, in order
    lo, hi = region.run_corners(np.arange(region.size), 1)
    for i, point in enumerate(iter_points(region)):
        one = Region(point, tuple(c + 1 for c in point))
        assert one.run_offsets(region)[0].tolist() == [i]
        assert tuple(lo[i]) == point and tuple(hi[i]) == one.hi
    assert len(lo) == region.size


@given(shapes.flatmap(lambda s: st.tuples(st.just(s), regions_in(s))))
def test_runs_match_brute_force(shape_region):
    shape, region = shape_region
    container = Region.from_shape(shape)
    runs, run_len = region.contiguous_runs_within(container)
    # brute force: mark the region's cells in the container's
    # linearisation and count maximal runs
    mask = np.zeros(container.size, dtype=bool)
    for p in iter_points(region):
        mask[linear(container, p)] = True
    brute_runs = int(np.count_nonzero(np.diff(np.r_[0, mask.view(np.int8)]) == 1))
    assert runs == brute_runs
    assert runs * run_len == region.size
    # every run has the same length: check boundaries
    if runs:
        idx = np.flatnonzero(mask)
        breaks = np.count_nonzero(np.diff(idx) > 1) + 1
        assert breaks == runs


@given(nested())
def test_iter_runs_covers_region_in_order(pair):
    """``run_offsets`` against per-point enumeration: the runs, laid end
    to end in ascending order, are exactly the region's points in the
    container's row-major order, each run is maximal, and its corners
    bound exactly the points it covers."""
    container, region = pair
    offsets, run_len = region.run_offsets(container)
    assert offsets.dtype == np.int64
    covered = [off + i for off in offsets.tolist() for i in range(run_len)]
    assert covered == sorted(linear(container, p) for p in iter_points(region))
    if region.empty:
        assert (offsets.size, run_len) == (0, 0)
        return
    assert np.all(np.diff(offsets) > run_len)  # a gap between runs
    assert region.contiguous_runs_within(container) == (offsets.size, run_len)
    lo, hi = container.run_corners(offsets, run_len)
    for off, l, h in zip(offsets.tolist(), lo.tolist(), hi.tolist()):
        run = Region(tuple(l), tuple(h))
        assert region.contains(run) and run.size == run_len
        assert linear(container, run.lo) == off


@given(shapes.flatmap(lambda s: regions_in(s)), st.integers(1, 30))
def test_split_tiles_exactly_with_bounded_pieces(region, max_elems):
    pieces = split_row_major(region, max_elems)
    assert all(p.size <= max_elems for p in pieces)
    assert sum(p.size for p in pieces) == region.size
    seen = set()
    for p in pieces:
        pts = set(iter_points(p))
        assert not (pts & seen)
        seen |= pts
    assert seen == set(iter_points(region))


@given(shapes.flatmap(lambda s: regions_in(s)), st.integers(1, 30))
def test_split_pieces_are_consecutive_single_runs(region, max_elems):
    pieces = split_row_major(region, max_elems)
    start = 0
    for p in pieces:
        offsets, run_len = p.run_offsets(region)
        assert offsets.tolist() == [start] and run_len == p.size
        start += p.size
    assert start == region.size


# --- schema properties -----------------------------------------------------------

@given(schemas())
def test_chunks_partition_the_array(schema):
    counts = np.zeros(schema.shape, dtype=np.int8)
    for chunk in schema.chunks():
        counts[chunk.region.slices()] += 1
    assert (counts == 1).all()


@given(schemas())
def test_describe_roundtrip(schema):
    d = schema.describe()
    assert DataSchema.build(d["shape"], d["mesh"], d["dists"]) == schema


@given(schemas(), st.integers(1, 5))
def test_round_robin_assignment_partitions_chunks(schema, n_servers):
    assigned = {}
    for chunk in schema.chunks():
        s = chunk.index % n_servers
        assigned.setdefault(s, []).append(chunk.index)
    all_ids = [c.index for c in schema.chunks()]
    got = sorted(i for ids in assigned.values() for i in ids)
    assert got == sorted(all_ids)
    # balance: server loads differ by at most one chunk
    if assigned:
        loads = [len(v) for v in assigned.values()]
        assert max(loads) - min(loads) <= -(-len(all_ids) // n_servers)


@given(schemas())
def test_chunks_intersecting_finds_exactly_the_overlapping(schema):
    probe = Region(
        tuple(0 for _ in schema.shape),
        tuple(max(1, s // 2) for s in schema.shape),
    )
    hits = {c.index for c, _ in schema.chunks_intersecting(probe)}
    brute = {
        c.index for c in schema.chunks()
        if c.region.intersect(probe) is not None
    }
    assert hits == brute
