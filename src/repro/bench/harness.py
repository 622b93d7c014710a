"""Run one experimental point and compute the paper's metrics.

Throughput definitions (paper, section 3):

- *elapsed time*: "the maximum time spent by any compute node on the
  collective i/o request" (we run one collective per measurement; the
  simulation is deterministic, so the paper's five-repetition averaging
  is unnecessary);
- *aggregate throughput*: array bytes / elapsed time;
- *normalised throughput*: (aggregate / #ionodes) / peak, where peak is
  the measured AIX read or write peak for real-disk runs and the 34 MB/s
  MPI bandwidth for infinitely-fast-disk runs.

The two studies with more than one front end are defined here too:
Table 1's measurements (:func:`measure_table1`, for ``repro table1``
and ``benchmarks/bench_paper.py``) and the five-strategy comparison
(:func:`compare_strategies`, for ``repro compare``, the bench and
``examples/baseline_comparison.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.baselines import (
    BaselineRuntime,
    run_naive_striping,
    run_traditional_caching,
    run_two_phase,
)
from repro.core.api import Array, ArrayLayout
from repro.core.config import PandaConfig
from repro.core.runtime import PandaRuntime
from repro.counters import COUNTERS
from repro.fs import FileSystem
from repro.machine import KB, MB, NAS_SP2, MachineSpec
from repro.mpi import Network
from repro.mpi.datatypes import DataBlock
from repro.mpi.message import MESSAGE_HEADER_BYTES
from repro.schema.distribution import BLOCK, NONE
from repro.sim import Simulator
from repro.workloads.apps import read_array_app, write_array_app
from repro.workloads.arrays import mesh_for

__all__ = ["PointResult", "run_panda_point", "run_traced_point", "run_figure",
           "fs_peak", "measure_table1", "STRATEGIES", "compare_strategies"]


@dataclass(frozen=True)
class PointResult:
    """One (figure, size, #ionodes) measurement."""

    kind: str
    n_compute: int
    n_io: int
    array_bytes: int
    disk_schema: str  # "natural" | "traditional"
    fast_disk: bool
    elapsed: float
    n_arrays: int = 1
    #: host-side perf-counter deltas for the timed run alone (events
    #: dispatched, cache hits, ...) -- snapshot/delta semantics, so
    #: back-to-back points in one process never accumulate into each
    #: other.  Excluded from equality: host observability, not a
    #: simulated result.
    counters: Dict[str, int] = field(default_factory=dict, compare=False)

    @property
    def aggregate(self) -> float:
        """Aggregate throughput, bytes/second."""
        return self.array_bytes / self.elapsed

    @property
    def aggregate_mbps(self) -> float:
        return self.aggregate / MB

    def peak(self, spec: MachineSpec = NAS_SP2) -> float:
        """The paper's normalisation base for this point."""
        if self.fast_disk:
            return spec.network_bandwidth
        return spec.fs_read_peak if self.kind == "read" else spec.fs_write_peak

    def normalized(self, spec: MachineSpec = NAS_SP2) -> float:
        """Per-I/O-node throughput over the relevant peak."""
        return (self.aggregate / self.n_io) / self.peak(spec)


def build_array(
    shape: Tuple[int, ...],
    n_compute: int,
    n_io: int,
    disk_schema: str,
    dtype=np.float64,
    name: str = "a",
) -> Array:
    """The experiment's array declaration: BLOCK,BLOCK,BLOCK in memory
    over the paper's compute meshes; on disk either the same (natural
    chunking) or BLOCK,*,* over the I/O nodes (traditional order)."""
    mem = ArrayLayout("mem", mesh_for(n_compute))
    if disk_schema == "natural":
        return Array(name, shape, dtype, mem, [BLOCK] * len(shape))
    if disk_schema == "traditional":
        disk = ArrayLayout("disk", (n_io,))
        dists = [BLOCK] + [NONE] * (len(shape) - 1)
        return Array(name, shape, dtype, mem, [BLOCK] * len(shape),
                     disk, dists)
    raise ValueError(f"unknown disk schema {disk_schema!r}")


def run_panda_point(
    kind: str,
    n_compute: int,
    n_io: int,
    shape: Tuple[int, ...],
    disk_schema: str = "natural",
    fast_disk: bool = False,
    spec: MachineSpec = NAS_SP2,
    config: Optional[PandaConfig] = None,
    n_arrays: int = 1,
) -> PointResult:
    """Run one collective (virtual payloads) and return its metrics.
    ``n_arrays > 1`` writes/reads a group of identical arrays (the
    paper's multiple-arrays experiments)."""
    if kind not in ("read", "write"):
        raise ValueError(f"bad kind {kind!r}")
    machine = spec.evolve(fast_disk=fast_disk)
    arrays = [
        build_array(shape, n_compute, n_io, disk_schema, name=f"a{i}")
        for i in range(n_arrays)
    ]
    runtime = PandaRuntime(
        n_compute=n_compute, n_io=n_io, spec=machine,
        config=config or PandaConfig(), real_payloads=False,
    )
    # reads must read something: write the dataset first (not timed)
    runtime.run(write_array_app(arrays, "bench"))
    # counters are global and additive; delta against a snapshot taken
    # here so the point reports exactly its own timed run, regardless of
    # how many points ran before it in this process
    before = COUNTERS.snapshot()
    if kind == "write":
        # re-write: the timed op (the first write also counts, but this
        # keeps read and write points symmetric)
        result = runtime.run(write_array_app(arrays, "bench"))
    else:
        result = runtime.run(read_array_app(arrays, "bench"))
    after = COUNTERS.snapshot()
    op = result.ops[-1]
    return PointResult(
        kind=kind, n_compute=n_compute, n_io=n_io,
        array_bytes=op.total_bytes, disk_schema=disk_schema,
        fast_disk=fast_disk, elapsed=op.elapsed, n_arrays=n_arrays,
        counters={k: after[k] - before[k] for k in after},
    )


def run_traced_point(
    kind: str,
    n_compute: int,
    n_io: int,
    shape: Tuple[int, ...],
    disk_schema: str = "natural",
    fast_disk: bool = False,
    spec: MachineSpec = NAS_SP2,
    config: Optional[PandaConfig] = None,
    registry=None,
):
    """Run one collective like :func:`run_panda_point`, but traced and
    analyzed: returns ``(RunResult, CriticalPathReport)`` for the
    *timed* run (the read-priming write is traced too but excluded
    from the analysis window).  Pass a
    :class:`~repro.obs.metrics.MetricsRegistry` to also collect
    resource-occupancy metrics over both runs."""
    from repro.obs.critical_path import analyze
    from repro.obs.metrics import attach

    if kind not in ("read", "write"):
        raise ValueError(f"bad kind {kind!r}")
    machine = spec.evolve(fast_disk=fast_disk)
    arrays = [build_array(shape, n_compute, n_io, disk_schema)]
    runtime = PandaRuntime(
        n_compute=n_compute, n_io=n_io, spec=machine,
        config=config or PandaConfig(), real_payloads=False, trace=True,
    )
    if registry is not None:
        attach(runtime, registry)
    runtime.run(write_array_app(arrays, "bench"))
    if kind == "write":
        result = runtime.run(write_array_app(arrays, "bench"))
    else:
        result = runtime.run(read_array_app(arrays, "bench"))
    t_end = runtime.sim.now
    report = analyze(result.trace, t0=t_end - result.elapsed, t_end=t_end)
    return result, report


def run_figure(exp, spec: MachineSpec = NAS_SP2,
               config: Optional[PandaConfig] = None
               ) -> Dict[int, Dict[int, PointResult]]:
    """Run a whole figure's grid: {size_mb: {n_io: PointResult}}."""
    grid: Dict[int, Dict[int, PointResult]] = {}
    for size_mb in exp.sizes_mb:
        row: Dict[int, PointResult] = {}
        for n_io in exp.ionodes:
            row[n_io] = run_panda_point(
                exp.kind, exp.n_compute, n_io, exp.shape(size_mb),
                disk_schema=exp.disk_schema, fast_disk=exp.fast_disk,
                spec=spec, config=config,
            )
        grid[size_mb] = row
    return grid


def fs_peak(write: bool, file_mb: int = 32, request: int = MB) -> float:
    """The paper's AIX measurement: stream a ``file_mb`` file in
    ``request``-byte requests (after an untimed first write), report
    bytes/second."""
    sim = Simulator()
    fs = FileSystem(sim, NAS_SP2, real=False)
    n_requests = file_mb * MB // request

    def stream(sim, mode):
        fh = fs.open("peak", mode)
        for _ in range(n_requests):
            if mode == "w":
                yield from fh.write(DataBlock.virtual(request))
            else:
                yield from fh.read(request)
        fh.close()

    sim.run_process(stream(sim, "w"))
    t0 = sim.now
    sim.run_process(stream(sim, "w" if write else "r"))
    return n_requests * request / (sim.now - t0)


def _pingpong(nbytes: int) -> float:
    """Seconds per one-way message of ``nbytes``, from ten round trips
    between two ranks."""
    sim = Simulator()
    net = Network(sim, NAS_SP2, 2)

    def ping(sim):
        for _ in range(10):
            yield from net.comm(0).send(1, tag=1, nbytes=nbytes)
            yield from net.comm(0).recv(tag=2)

    def pong(sim):
        for _ in range(10):
            yield from net.comm(1).recv(tag=1)
            yield from net.comm(1).send(0, tag=2, nbytes=nbytes)

    sim.spawn(ping(sim))
    sim.spawn(pong(sim))
    sim.run()
    return sim.now / 20


def measure_table1() -> Dict[str, float]:
    """Table 1 on the simulated machine, in the units the paper prints:
    the AIX read/write peaks measured the paper's way (1 MB requests on
    a 32 MB file), MPI latency and bandwidth from ping-pongs, and the
    machine constants the table lists beside them."""
    latency = _pingpong(0)
    return {
        "aix_read_mbps": fs_peak(write=False) / MB,
        "aix_write_mbps": fs_peak(write=True) / MB,
        "mpi_latency_us": latency * 1e6,
        "mpi_bandwidth_mbps":
            (MB + MESSAGE_HEADER_BYTES) / (_pingpong(MB) - latency) / MB,
        "disk_rate_mbps": NAS_SP2.disk_transfer_rate / MB,
        "fs_block_kb": NAS_SP2.fs_block_size // KB,
        "total_nodes": NAS_SP2.total_nodes,
        "node_memory_mb": NAS_SP2.node_memory // MB,
    }


#: the paper's related-work comparison, in table order: Panda with both
#: disk schemas, then each baseline with its runtime configuration --
#: two-phase streams 1 MB stripes, the CFS-style cache holds 8 MB, and
#: naive striping sends 64 KB stripes uncached.
STRATEGIES = ("panda-natural", "panda-traditional", "two-phase",
              "traditional-caching", "naive-striping")
_BASELINES = (
    ("two-phase", run_two_phase, dict(stripe_bytes=MB)),
    ("traditional-caching", run_traditional_caching,
     dict(use_cache=True, cache_bytes=8 * MB, stripe_bytes=64 * KB)),
    ("naive-striping", run_naive_striping, dict(stripe_bytes=64 * KB)),
)


def compare_strategies(n_compute: int, n_io: int, shape: Tuple[int, ...],
                       read: bool = True) -> Dict[str, Dict[str, float]]:
    """Aggregate throughput (bytes/s) of every strategy in
    :data:`STRATEGIES`: ``{strategy: {"write": ..., "read": ...}}``
    (``"write"`` only when ``read`` is false).  Each baseline writes and
    then reads back on one runtime; Panda's points come from
    :func:`run_panda_point`."""
    kinds = ("write", "read") if read else ("write",)
    out: Dict[str, Dict[str, float]] = {
        f"panda-{schema}": {
            kind: run_panda_point(kind, n_compute, n_io, shape,
                                  disk_schema=schema).aggregate
            for kind in kinds}
        for schema in ("natural", "traditional")
    }
    spec = build_array(shape, n_compute, n_io, "natural").spec()
    for name, run, options in _BASELINES:
        rt = BaselineRuntime(n_compute, n_io, real_payloads=False, **options)
        out[name] = {kind: run(rt, spec, kind).throughput for kind in kinds}
    return out
