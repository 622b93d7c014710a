"""Unit tests for the reorganisation engine (gather/scatter copies)."""

import numpy as np
import pytest

from repro.schema import (
    DataSchema,
    Region,
    extract_region,
    gather_into,
    inject_region,
)
from repro.schema.distribution import BLOCK, NONE


def global_array(shape, dtype=np.int32):
    return np.arange(np.prod(shape), dtype=dtype).reshape(shape)


def test_extract_region_from_origin_zero():
    a = global_array((4, 4))
    out = extract_region(a, (0, 0), Region((1, 1), (3, 3)))
    np.testing.assert_array_equal(out, a[1:3, 1:3])
    assert out.flags["C_CONTIGUOUS"]


def test_extract_region_with_chunk_origin():
    g = global_array((8, 8))
    chunk = g[4:8, 0:4].copy()  # chunk at origin (4, 0)
    out = extract_region(chunk, (4, 0), Region((5, 1), (7, 3)))
    np.testing.assert_array_equal(out, g[5:7, 1:3])


def test_extract_region_out_of_chunk_raises():
    chunk = global_array((4, 4))
    with pytest.raises(ValueError):
        extract_region(chunk, (0, 0), Region((2, 2), (6, 6)))


def test_inject_region_roundtrip():
    chunk = np.zeros((4, 4), dtype=np.int32)
    data = np.arange(4, dtype=np.int32).reshape(2, 2)
    inject_region(chunk, (10, 10), Region((11, 11), (13, 13)), data)
    np.testing.assert_array_equal(chunk[1:3, 1:3], data)
    assert chunk.sum() == data.sum()


def test_inject_accepts_flat_data():
    chunk = np.zeros((4, 4), dtype=np.int32)
    flat = np.arange(4, dtype=np.int32)
    inject_region(chunk, (0, 0), Region((0, 0), (2, 2)), flat)
    np.testing.assert_array_equal(chunk[0:2, 0:2], flat.reshape(2, 2))


def test_extract_then_inject_is_identity():
    g = global_array((6, 7, 5))
    region = Region((1, 2, 0), (4, 6, 5))
    piece = extract_region(g, (0, 0, 0), region)
    target = np.zeros_like(g)
    inject_region(target, (0, 0, 0), region, piece)
    np.testing.assert_array_equal(target[region.slices()], g[region.slices()])


def test_gather_into_cross_chunk_copy():
    g = global_array((8, 8))
    src_origin = (0, 4)
    src = g[0:4, 4:8].copy()
    dst = np.zeros((4, 8), dtype=np.int32)  # disk chunk rows 2..6, origin (2,0)
    region = Region((2, 4), (4, 8))
    gather_into(dst, (2, 0), src, src_origin, region)
    np.testing.assert_array_equal(dst[0:2, 4:8], g[2:4, 4:8])


def test_full_reorganisation_bbb_to_slabs():
    """Reorganise a BLOCK,BLOCK,BLOCK decomposition into BLOCK,*,* slabs
    purely with gather_into, and check the result equals direct slicing."""
    shape = (8, 8, 8)
    g = global_array(shape)
    mem = DataSchema.build(shape, (2, 2, 2), [BLOCK, BLOCK, BLOCK])
    disk = DataSchema.build(shape, (4,), [BLOCK, NONE, NONE])

    mem_chunks = {
        c.index: (c.region.lo, g[c.region.slices()].copy()) for c in mem.chunks()
    }
    for dchunk in disk.chunks():
        buf = np.zeros(dchunk.region.shape, dtype=g.dtype)
        for mchunk, overlap in mem.chunks_intersecting(dchunk.region):
            origin, data = mem_chunks[mchunk.index]
            gather_into(buf, dchunk.region.lo, data, origin, overlap)
        np.testing.assert_array_equal(buf, g[dchunk.region.slices()])


def test_dtype_preserved():
    g = global_array((4, 4), dtype=np.float64)
    out = extract_region(g, (0, 0), Region((0, 0), (2, 2)))
    assert out.dtype == np.float64
