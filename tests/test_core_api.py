"""Unit tests for the application-facing API (Figure 2 objects)."""

import numpy as np
import pytest

from repro.core import Array, ArrayGroup, ArrayLayout, BLOCK, NONE
from repro.schema import DataSchema


def test_array_layout():
    layout = ArrayLayout("memory layout", (8, 8))
    assert layout.rank == 2
    assert layout.dims == (8, 8)
    assert layout.n_nodes == 64


def test_array_natural_chunking_default():
    mem = ArrayLayout("mem", (2, 2))
    a = Array("t", (8, 8), np.float64, mem, [BLOCK, BLOCK])
    assert a.natural_chunking
    assert a.disk_schema == a.memory_schema
    assert a.itemsize == 8
    assert a.nbytes == 8 * 8 * 8


def test_array_explicit_disk_schema():
    mem = ArrayLayout("mem", (2, 2))
    disk = ArrayLayout("disk", (4,))
    a = Array("t", (8, 8), np.float64, mem, [BLOCK, BLOCK], disk, [BLOCK, NONE])
    assert not a.natural_chunking
    assert a.disk_schema == DataSchema.build((8, 8), (4,), [BLOCK, NONE])


def test_array_dtype_from_itemsize():
    """The C++ API passes sizeof(double); a bare int is accepted."""
    mem = ArrayLayout("mem", (2,))
    a = Array("t", (8,), 8, mem, [BLOCK])
    assert a.itemsize == 8
    assert a.dtype.itemsize == 8


def test_array_dtype_spellings():
    mem = ArrayLayout("mem", (2,))
    for dt in (np.float32, "float32", np.dtype("float32")):
        a = Array("t", (8,), dt, mem, [BLOCK])
        assert a.itemsize == 4


def test_array_disk_layout_and_dist_must_pair():
    mem = ArrayLayout("mem", (2,))
    disk = ArrayLayout("disk", (2,))
    with pytest.raises(ValueError):
        Array("t", (8,), 8, mem, [BLOCK], disk_layout=disk)
    with pytest.raises(ValueError):
        Array("t", (8,), 8, mem, [BLOCK], disk_dist=[BLOCK])


def test_array_spec_marshals_schemas():
    mem = ArrayLayout("mem", (2, 2))
    a = Array("t", (8, 8), np.int32, mem, [BLOCK, BLOCK])
    spec = a.spec()
    assert spec.name == "t"
    assert spec.itemsize == 4
    assert spec.nbytes == 256
    assert spec.np_dtype == np.dtype(np.int32)
    assert spec.memory_schema == a.memory_schema


def test_array_mesh_dist_mismatch_caught():
    mem = ArrayLayout("mem", (2, 2))
    with pytest.raises(ValueError):
        Array("t", (8, 8), 8, mem, [BLOCK, NONE])  # 1 BLOCK vs rank-2 mesh


def test_group_include_and_duplicate():
    g = ArrayGroup("Sim2")
    mem = ArrayLayout("mem", (2,))
    a = Array("t", (8,), 8, mem, [BLOCK])
    g.include(a)
    with pytest.raises(ValueError):
        g.include(Array("t", (8,), 8, mem, [BLOCK]))


def test_empty_group_specs_raise():
    with pytest.raises(ValueError):
        ArrayGroup("g").specs()


def test_paper_figure2_declarations():
    """The exact declarations from Figure 2 of the paper."""
    memory = ArrayLayout("memory layout", (8, 8))
    disk = ArrayLayout("disk layout", (8, 1))
    memory_dist = (BLOCK, BLOCK, NONE)
    disk_dist = (BLOCK, BLOCK, NONE)

    temperature = Array("temperature", (512, 512, 512), np.int32,
                        memory, memory_dist, disk, disk_dist)
    pressure = Array("pressure", (512, 512, 512), np.float64,
                     memory, memory_dist, disk, disk_dist)
    density = Array("density", (256, 256, 256), np.float64,
                    memory, memory_dist, disk, disk_dist)

    simulation = ArrayGroup("Sim2")
    simulation.include(temperature)
    simulation.include(pressure)
    simulation.include(density)

    specs = simulation.specs()
    assert [s.name for s in specs] == ["temperature", "pressure", "density"]
    assert specs[0].itemsize == 4 and specs[1].itemsize == 8
    # the 8x1 disk mesh places whole column-panels on 8 positions
    assert len(list(temperature.disk_schema.chunks())) == 8
