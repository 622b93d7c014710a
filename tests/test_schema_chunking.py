"""Unit tests for distributions, meshes and DataSchema chunk geometry."""

import pytest

from repro.schema import BLOCK, CYCLIC, NONE, DataSchema, Mesh, Region, parse_dist
from repro.schema.distribution import block_span


# --- distributions -------------------------------------------------------

def test_parse_dist_spellings():
    assert parse_dist("BLOCK") is BLOCK
    assert parse_dist("block") is BLOCK
    assert parse_dist("*") is NONE
    assert parse_dist("none") is NONE
    assert parse_dist(BLOCK) is BLOCK
    assert parse_dist("CYCLIC") is CYCLIC


def test_parse_dist_rejects_garbage():
    with pytest.raises(ValueError):
        parse_dist("SCATTER")


def test_dist_distributed_flag():
    assert BLOCK.distributed
    assert CYCLIC.distributed
    assert not NONE.distributed


def test_block_span_even():
    assert [block_span(8, 4, i) for i in range(4)] == [
        (0, 2), (2, 4), (4, 6), (6, 8)
    ]


def test_block_span_uneven_hpf_rule():
    # HPF: block = ceil(10/4) = 3; last block short
    assert [block_span(10, 4, i) for i in range(4)] == [
        (0, 3), (3, 6), (6, 9), (9, 10)
    ]


def test_block_span_with_empty_trailing_blocks():
    # extent 2 over 4 parts: ceil=1, parts 2 and 3 are empty
    assert [block_span(2, 4, i) for i in range(4)] == [
        (0, 1), (1, 2), (2, 2), (2, 2)
    ]


def test_block_span_bounds():
    with pytest.raises(ValueError):
        block_span(10, 4, 4)
    with pytest.raises(ValueError):
        block_span(10, 0, 0)


# --- meshes ---------------------------------------------------------------

def test_mesh_row_major_numbering():
    m = Mesh((2, 3))
    assert m.size == 6
    assert m.coords_of(0) == (0, 0)
    assert m.coords_of(2) == (0, 2)
    assert m.coords_of(3) == (1, 0)
    assert m.index_of((1, 2)) == 5


def test_mesh_coords_index_roundtrip():
    m = Mesh((4, 2, 2))
    for i in range(m.size):
        assert m.index_of(m.coords_of(i)) == i


def test_mesh_iter_coords_in_order():
    m = Mesh((2, 2))
    assert list(m.iter_coords()) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_mesh_validation():
    with pytest.raises(ValueError):
        Mesh(())
    with pytest.raises(ValueError):
        Mesh((0,))
    with pytest.raises(ValueError):
        Mesh((2,)).coords_of(2)
    with pytest.raises(ValueError):
        Mesh((2, 2)).index_of((2, 0))
    with pytest.raises(ValueError):
        Mesh((2, 2)).index_of((0,))


# --- data schemas ------------------------------------------------------------

def test_bbb_schema_partitions_array():
    s = DataSchema.build((8, 8, 8), (2, 2, 2), [BLOCK, BLOCK, BLOCK])
    chunks = list(s.chunks())
    assert len(chunks) == 8
    assert sum(c.region.size for c in chunks) == 512
    # all disjoint
    for i, a in enumerate(chunks):
        for b in chunks[i + 1:]:
            assert a.region.intersect(b.region) is None


def test_block_star_star_schema_is_row_slabs():
    s = DataSchema.build((8, 8, 8), (4,), [BLOCK, "*", "*"])
    regions = [c.region for c in s.chunks()]
    assert regions == [
        Region((0, 0, 0), (2, 8, 8)),
        Region((2, 0, 0), (4, 8, 8)),
        Region((4, 0, 0), (6, 8, 8)),
        Region((6, 0, 0), (8, 8, 8)),
    ]


def test_paper_figure2_memory_schema():
    # 512^3 array over an 8x8 mesh with BLOCK,BLOCK,* -- each chunk is
    # a 64x64x512 column block (the paper's 64-processor example)
    s = DataSchema.build((512, 512, 512), (8, 8), [BLOCK, BLOCK, NONE])
    c0 = s.chunk(0)
    assert c0.region == Region((0, 0, 0), (64, 64, 512))
    c63 = s.chunk(63)
    assert c63.region == Region((448, 448, 0), (512, 512, 512))


def test_chunk_ids_are_row_major_over_mesh():
    s = DataSchema.build((4, 4), (2, 2), [BLOCK, BLOCK])
    assert s.chunk(1).mesh_coords == (0, 1)
    assert s.chunk(1).region == Region((0, 2), (2, 4))
    assert s.chunk(2).mesh_coords == (1, 0)
    assert s.chunk(2).region == Region((2, 0), (4, 2))


def test_uneven_schema_has_empty_chunks():
    s = DataSchema.build((2, 4), (4,), [BLOCK, NONE])
    all_chunks = list(s.chunks(include_empty=True))
    assert len(all_chunks) == 4
    assert sum(1 for c in all_chunks if c.empty) == 2
    assert len(list(s.chunks())) == 2


def test_chunks_intersecting():
    s = DataSchema.build((8, 8), (2, 2), [BLOCK, BLOCK])
    hits = s.chunks_intersecting(Region((3, 3), (5, 5)))
    assert len(hits) == 4
    assert [c.index for c, _ in hits] == [0, 1, 2, 3]
    assert hits[0][1] == Region((3, 3), (4, 4))


def test_cyclic_rejected():
    with pytest.raises(NotImplementedError):
        DataSchema.build((8,), (2,), [CYCLIC])


def test_mesh_rank_must_match_block_count():
    with pytest.raises(ValueError):
        DataSchema.build((8, 8), (2, 2), [BLOCK, NONE])
    with pytest.raises(ValueError):
        DataSchema.build((8, 8), (2,), [BLOCK, BLOCK])


def test_describe_roundtrip():
    s = DataSchema.build((8, 8, 8), (2, 4), [BLOCK, NONE, BLOCK])
    d = s.describe()
    assert DataSchema.build(d["shape"], d["mesh"], d["dists"]) == s


def test_invalid_shape_rejected():
    with pytest.raises(ValueError):
        DataSchema.build((), (1,), [])
    with pytest.raises(ValueError):
        DataSchema.build((0,), (1,), [BLOCK])


def test_natural_chunking_equivalence():
    """Natural chunking: identical memory and disk schema objects agree
    chunk-for-chunk."""
    mem = DataSchema.build((16, 16), (2, 2), [BLOCK, BLOCK])
    disk = DataSchema.build((16, 16), (2, 2), [BLOCK, BLOCK])
    for cm, cd in zip(mem.chunks(), disk.chunks()):
        assert cm.region == cd.region
        assert cm.index == cd.index


# --- chunks_intersecting: analytic candidates vs exhaustive scan ----------

def test_chunks_intersecting_matches_exhaustive_scan():
    import random

    random.seed(11)
    schemas = [
        DataSchema.build((17, 9), (4, 2), ("BLOCK", "BLOCK")),
        DataSchema.build((8, 8, 8), (2, 2, 2), ("BLOCK", "BLOCK", "BLOCK")),
        DataSchema.build((10, 7), (3,), ("BLOCK", "*")),
        DataSchema.build((7, 10), (3,), ("*", "BLOCK")),
        DataSchema.build((5,), (8,), ("BLOCK",)),  # short/empty tail chunks
        DataSchema.build((12, 5, 6), (2, 3), ("BLOCK", "*", "BLOCK")),
    ]
    for schema in schemas:
        for _ in range(100):
            lo = tuple(random.randint(0, e) for e in schema.shape)
            hi = tuple(
                random.randint(l, e) for l, e in zip(lo, schema.shape)
            )
            region = Region(lo, hi)
            fast = schema.chunks_intersecting(region)
            slow = [
                (c, o)
                for c in schema.chunks()
                for o in [c.region.intersect(region)]
                if o is not None
            ]
            assert list(fast) == slow, (schema, region)


def test_chunk_list_cached_and_index_checked():
    schema = DataSchema.build((8, 8), (2, 2), ("BLOCK", "BLOCK"))
    assert schema.chunk(3) is schema.chunk(3)
    with pytest.raises(ValueError):
        schema.chunk(4)
    with pytest.raises(ValueError):
        schema.chunk(-1)
