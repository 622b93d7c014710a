"""Machine specifications for the simulated platform.

The defaults reproduce Table 1 of the paper: the IBM SP2 at NASA Ames
(NAS) as configured for the Panda 2.0 experiments.  Every cost model in
:mod:`repro.sim`, :mod:`repro.mpi` and :mod:`repro.fs` draws its
constants from a :class:`MachineSpec`, so a single object fully
describes the simulated platform.

Calibration (DESIGN.md section 6): the file-system model is a two-point
fit.  Requests stream at the raw disk rate (3.0 MB/s) plus a fixed
per-request overhead chosen so that 1 MB requests achieve exactly the
measured AIX peaks (2.85 MB/s read, 2.23 MB/s write) -- the paper
measured those peaks with 1 MB requests.  Smaller requests then degrade,
matching the paper's observation that AIX throughput declines for write
sizes under 1 MB.

Units: bytes, seconds, and bytes/second throughout.  The paper's MB is
the binary megabyte (2**20 bytes); so is ours.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

MB = 1 << 20
KB = 1 << 10

__all__ = ["MB", "KB", "MachineSpec", "NAS_SP2", "sp2"]


@dataclass(frozen=True)
class MachineSpec:
    """Cost-model constants for a simulated distributed-memory machine.

    The default values correspond to Table 1 of the paper (NAS IBM SP2)
    plus the calibration constants described in DESIGN.md section 6.
    Instances are immutable; use :meth:`evolve` to derive variants
    (e.g. ``spec.evolve(fast_disk=True)`` for the paper's
    infinitely-fast-disk experiments).
    """

    name: str = "NAS IBM SP2"

    # --- interconnect (Table 1: NAS-measured MPI figures) -------------
    #: one-way message latency in seconds (43 microseconds).
    network_latency: float = 43e-6
    #: point-to-point MPI bandwidth in bytes/second (34 MB/s).
    network_bandwidth: float = 34.0 * MB
    #: hardware switch link bandwidth, bidirectional (40 MB/s); the
    #: message cost model uses the MPI figure, this one is informational.
    switch_bandwidth: float = 40.0 * MB

    # --- per-node file system (Table 1: measured AIX JFS peaks) -------
    #: measured peak throughput for AIX file-system reads (2.85 MB/s),
    #: obtained with 1 MB requests on 32-64 MB files.
    fs_read_peak: float = 2.85 * MB
    #: measured peak throughput for AIX file-system writes (2.23 MB/s).
    fs_write_peak: float = 2.23 * MB
    #: raw disk peak transfer rate (3.0 MB/s) -- the streaming rate of
    #: the device under JFS, and the model's asymptotic throughput.
    disk_transfer_rate: float = 3.0 * MB
    #: file-system block size (4 KB).
    fs_block_size: int = 4 * KB
    #: request size at which the model is pinned to the measured peaks.
    fs_calibration_request: int = MB
    #: extra seek penalty in seconds charged when an access is not
    #: sequential with respect to the previous access on the same disk
    #: (one average seek + rotational latency on a 1995 SCSI disk).
    disk_seek_time: float = 0.015
    #: when True, file-system data-transfer time is zero (the paper's
    #: "simulating an infinitely fast disk" runs, where the fs calls were
    #: commented out of the Panda server).  Protocol and network costs
    #: remain.
    fast_disk: bool = False

    # --- node (Table 1: RS6000/590, POWER2) ---------------------------
    #: memory-to-memory copy bandwidth used for packing / unpacking /
    #: reorganisation, bytes/second.
    memory_copy_rate: float = 300.0 * MB
    #: fixed cost per contiguous run gathered or scattered during a
    #: strided pack/unpack, seconds.  Dominates when reorganisation
    #: produces many short runs (drives the Figure 9 band).
    strided_run_overhead: float = 2e-6
    #: per-message protocol handling cost on clients and servers
    #: (request parsing, plan lookup, buffer management), seconds.
    request_handling_overhead: float = 100e-6
    #: per-server cost of digesting a schema descriptor and forming an
    #: I/O plan for one collective operation, seconds.  Together with the
    #: handshake messages this produces the ~13 ms startup overhead the
    #: paper measures.
    plan_formation_overhead: float = 1.1e-2
    #: per-node memory, bytes (128 MB per node on the NAS SP2).
    node_memory: int = 128 * MB

    # --- cluster shape -------------------------------------------------
    #: total nodes available (160 on the NAS SP2); both runtimes refuse
    #: a deployment that does not fit (:meth:`check_nodes`).
    total_nodes: int = 160
    #: disk space per node, bytes (2 GB).
    node_disk_space: int = 2 << 30

    def __post_init__(self) -> None:
        if self.fs_read_peak > self.disk_transfer_rate:
            raise ValueError("fs_read_peak cannot exceed the raw disk rate")
        if self.fs_write_peak > self.disk_transfer_rate:
            raise ValueError("fs_write_peak cannot exceed the raw disk rate")
        if self.network_bandwidth <= 0:
            raise ValueError("network parameters must be positive")
        # every charge is a yielded delay, which must be >= 0 and not
        # NaN: refuse a cost that would make one
        for field in ("network_latency", "disk_seek_time",
                      "strided_run_overhead", "request_handling_overhead",
                      "plan_formation_overhead"):
            cost = getattr(self, field)
            if not 0 <= cost < math.inf:  # NaN fails this too
                raise ValueError(
                    f"{field} must be finite and >= 0, got {cost!r}")
        if not self.memory_copy_rate > 0:
            raise ValueError(
                f"memory_copy_rate must be > 0, got {self.memory_copy_rate!r}")
        # a spec is part of the cost-walk memo key of every REQUEST
        object.__setattr__(
            self, "_hash", hash(dataclasses.astuple(self)))

    def __hash__(self) -> int:  # cached; dataclass keeps explicit hashes
        return self._hash

    def check_nodes(self, n_compute: int, n_io: int) -> None:
        """Refuse ``n_compute`` compute and ``n_io`` I/O nodes when
        either is none or together they exceed the machine."""
        if n_compute < 1 or n_io < 1:
            raise ValueError("need at least one compute node and one I/O node")
        if n_compute + n_io > self.total_nodes:
            raise ValueError(
                f"{n_compute} compute + {n_io} I/O nodes exceed the machine's "
                f"{self.total_nodes} nodes"
            )

    def evolve(self, **changes: object) -> "MachineSpec":
        """Return a copy of this spec with ``changes`` applied."""
        return dataclasses.replace(self, **changes)

    # --- derived constants ----------------------------------------------
    @property
    def fs_read_overhead(self) -> float:
        """Per-request read overhead implied by the calibration anchor."""
        n = self.fs_calibration_request
        return n / self.fs_read_peak - n / self.disk_transfer_rate

    @property
    def fs_write_overhead(self) -> float:
        """Per-request write overhead implied by the calibration anchor."""
        n = self.fs_calibration_request
        return n / self.fs_write_peak - n / self.disk_transfer_rate

    # --- derived helpers ------------------------------------------------
    def fs_time(self, nbytes: int, *, write: bool, sequential: bool = True) -> float:
        """Service time for one file-system request of ``nbytes``.

        This is the model used by :class:`repro.fs.disk.DiskModel`; it is
        exposed here so analytical tests and the benchmark harness can
        predict costs without instantiating a file system.
        """
        if self.fast_disk:
            return 0.0
        if nbytes == 0:
            return 0.0
        # JFS splits requests internally: the per-request overhead is
        # charged once per calibration unit (1 MB), so throughput is
        # capped at the measured peak for any request size -- which is
        # what "measured peak" means.
        units = -(-nbytes // self.fs_calibration_request)
        t = units * (self.fs_write_overhead if write else self.fs_read_overhead)
        t += nbytes / self.disk_transfer_rate
        if not sequential:
            t += self.disk_seek_time
        return t

    def copy_time(self, nbytes: int, runs: int = 1) -> float:
        """Time to gather/scatter ``nbytes`` spread over ``runs``
        contiguous runs through the node's memory system."""
        return nbytes / self.memory_copy_rate + runs * self.strided_run_overhead


#: the paper's evaluation platform, Table 1 defaults.
NAS_SP2 = MachineSpec()


def sp2(**changes: object) -> MachineSpec:
    """Convenience constructor: the NAS SP2 spec with overrides."""
    return NAS_SP2.evolve(**changes)
