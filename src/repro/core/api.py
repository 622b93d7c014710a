"""Panda's high-level application API (Figure 2 of the paper).

The C++ original::

    ArrayLayout *memory = new ArrayLayout("memory layout", 2, {8, 8});
    ArrayLayout *disk   = new ArrayLayout("disk layout",   2, {8, 1});
    Array *temperature  = new Array("temperature", 3, {512,512,512},
                                    sizeof(double), memory, memory_dist,
                                    disk, disk_dist);
    ArrayGroup *simulation = new ArrayGroup("Sim2", "simulation2.schema");
    simulation->include(temperature);
    ...
    simulation->timestep();
    if (i == 50) simulation->checkpoint();

and the Python rendering (inside an SPMD application generator run by
:class:`~repro.core.runtime.PandaRuntime`)::

    memory = ArrayLayout("memory layout", (8, 8))
    disk   = ArrayLayout("disk layout",   (8,))
    temperature = Array("temperature", (512, 512, 512), np.float64,
                        memory, (BLOCK, BLOCK, NONE),
                        disk,   (BLOCK, NONE, NONE))
    simulation = ArrayGroup("Sim2")
    simulation.include(temperature)
    ...
    yield from simulation.timestep(ctx)
    if i == 50:
        yield from simulation.checkpoint(ctx)

The C++ group's second argument names its schema file; here every
written dataset's schema goes to ``{dataset}.schema`` beside its data
(:meth:`~repro.core.runtime.PandaRuntime.catalog_commit`), so the group
takes only its name.

Collective operations are *process helpers* (``yield from``) because
application code runs as simulation processes; this is the one
structural difference from the C++ API.  Every client rank must invoke
the same operations in the same order -- exactly the paper's SPMD
contract ("Panda assumes all clients will participate in the collective
i/o at approximately the same time").
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.protocol import ArraySpec
from repro.schema.chunking import DataSchema
from repro.schema.distribution import BLOCK, NONE, Dist, parse_dist
from repro.schema.layout import Mesh

__all__ = ["ArrayLayout", "Array", "ArrayGroup", "BLOCK", "NONE"]


class ArrayLayout:
    """A named logical mesh of positions (the paper's ArrayLayout).

    ``ArrayLayout("memory layout", (8, 8))`` is an 8x8 mesh; rank is
    inferred from the dims tuple (the C++ API passes it separately).
    """

    def __init__(self, name: str, dims: Sequence[int]) -> None:
        self.name = name
        self.mesh = Mesh(tuple(dims))

    @property
    def rank(self) -> int:
        return self.mesh.ndim

    @property
    def dims(self) -> Tuple[int, ...]:
        return self.mesh.dims

    @property
    def n_nodes(self) -> int:
        return self.mesh.size

    def __repr__(self) -> str:
        return f"ArrayLayout({self.name!r}, {self.dims})"


class Array:
    """A multidimensional array with a memory schema and a disk schema
    (the paper's Array).

    ``dtype`` may be a NumPy dtype (real-payload runs) or a bare element
    size in bytes (virtual runs; the C++ API's ``sizeof(double)`` style).
    By default the disk schema equals the memory schema -- the paper's
    "natural chunking" -- "users may override the default by declaring
    any BLOCK- and *-based schema for disk".
    """

    def __init__(
        self,
        name: str,
        size: Sequence[int],
        dtype: Union[np.dtype, type, str, int],
        memory_layout: ArrayLayout,
        memory_dist: Sequence[Union[str, Dist]],
        disk_layout: Optional[ArrayLayout] = None,
        disk_dist: Optional[Sequence[Union[str, Dist]]] = None,
        sub_chunk_bytes: Optional[int] = None,
    ) -> None:
        self.name = name
        self.sub_chunk_bytes = sub_chunk_bytes
        self.shape = tuple(int(s) for s in size)
        if isinstance(dtype, int):
            self.itemsize = dtype
            self.dtype = np.dtype(f"V{dtype}")
        else:
            self.dtype = np.dtype(dtype)
            self.itemsize = self.dtype.itemsize
        if (disk_layout is None) != (disk_dist is None):
            raise ValueError(
                "disk_layout and disk_dist must be given together (or both "
                "omitted for natural chunking)"
            )
        self.memory_layout = memory_layout
        self.memory_dist = tuple(parse_dist(d) for d in memory_dist)
        # natural chunking by default
        self.disk_layout = disk_layout if disk_layout is not None else memory_layout
        self.disk_dist = (
            tuple(parse_dist(d) for d in disk_dist)
            if disk_dist is not None
            else self.memory_dist
        )
        self.memory_schema = DataSchema(self.shape, self.memory_layout.mesh, self.memory_dist)
        self.disk_schema = DataSchema(self.shape, self.disk_layout.mesh, self.disk_dist)

    @property
    def rank(self) -> int:
        return len(self.shape)

    @property
    def nbytes(self) -> int:
        return int(np.prod(self.shape)) * self.itemsize

    @property
    def natural_chunking(self) -> bool:
        """True when disk schema == memory schema (the paper's default)."""
        return self.memory_schema == self.disk_schema

    def spec(self) -> ArraySpec:
        """Marshalled form carried by collective requests."""
        return ArraySpec(
            name=self.name,
            shape=self.shape,
            itemsize=self.itemsize,
            dtype=self.dtype.str,
            memory_schema=self.memory_schema,
            disk_schema=self.disk_schema,
            sub_chunk_bytes=self.sub_chunk_bytes,
        )

    def __repr__(self) -> str:
        return (
            f"Array({self.name!r}, {'x'.join(map(str, self.shape))}, "
            f"mem={self.memory_schema!r}, disk={self.disk_schema!r})"
        )


class ArrayGroup:
    """A named group of arrays read and written together (the paper's
    ArrayGroup), with the timestep / checkpoint / restart services.

    A group is a *declaration* shared by all ranks; per-rank operation
    counters live in the client runtime so the SPMD illusion holds.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.arrays: List[Array] = []

    def include(self, array: Array) -> None:
        """Add an array to the group (paper: ``simulation->include``)."""
        if any(a.name == array.name for a in self.arrays):
            raise ValueError(f"array {array.name!r} already in group {self.name!r}")
        self.arrays.append(array)

    def specs(self) -> Tuple[ArraySpec, ...]:
        if not self.arrays:
            raise ValueError(f"array group {self.name!r} is empty")
        return tuple(a.spec() for a in self.arrays)

    # -- collective services (process helpers; ctx is a ClientContext) ----
    def timestep(self, ctx):
        """Output all arrays for the next timestep: one collective write
        to a fresh per-timestep dataset."""
        k = ctx.panda.next_counter(self.name, "timestep")
        dataset = f"{self.name}.t{k:05d}"
        result = yield from ctx.panda.collective(
            "write", self.specs(), dataset)
        return result

    def checkpoint(self, ctx):
        """Take a checkpoint: a collective write to an alternating
        checkpoint dataset (two slots, so a crash during checkpointing
        leaves the previous checkpoint intact)."""
        k = ctx.panda.next_counter(self.name, "checkpoint")
        dataset = f"{self.name}.ckpt{k % 2}"
        result = yield from ctx.panda.collective(
            "write", self.specs(), dataset)
        ctx.panda.note_checkpoint(self.name, dataset)
        return result

    def restart(self, ctx, dataset: Optional[str] = None):
        """Restore all arrays from the latest (or a named) checkpoint:
        one collective read."""
        if dataset is None:
            dataset = ctx.panda.latest_checkpoint(self.name)
        result = yield from ctx.panda.collective(
            "read", self.specs(), dataset)
        return result

    def write(self, ctx, dataset: Optional[str] = None, priority: int = 1):
        """Write the whole group to a named dataset.  ``priority`` is
        the op's fair-share weight under an inter-op scheduler."""
        result = yield from ctx.panda.collective(
            "write", self.specs(), dataset or self.name, priority=priority)
        return result

    def read(self, ctx, dataset: Optional[str] = None, priority: int = 1):
        """Read the whole group from a named dataset.  ``priority`` is
        the op's fair-share weight under an inter-op scheduler."""
        result = yield from ctx.panda.collective(
            "read", self.specs(), dataset or self.name, priority=priority)
        return result

    def __repr__(self) -> str:
        return f"ArrayGroup({self.name!r}, arrays={[a.name for a in self.arrays]})"
