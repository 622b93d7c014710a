"""Reproduction of "Server-Directed Collective I/O in Panda" (SC '95).

The package implements Panda 2.0 -- a collective-I/O library for
multidimensional arrays -- together with the simulated IBM SP2 it ran
on, the baseline strategies it was compared against, and a benchmark
harness that regenerates every table and figure of the paper's
evaluation.  See README.md for the tour, DESIGN.md for the system
inventory, docs/PROTOCOL.md for the protocol walkthrough, and
EXPERIMENTS.md for the paper-vs-measured record.

Most applications only need the top-level names re-exported here::

    from repro import Array, ArrayGroup, ArrayLayout, BLOCK, NONE, PandaRuntime

Subsystems (importable individually):

- :mod:`repro.core` -- the Panda library (the paper's contribution)
- :mod:`repro.schema` -- HPF-style chunking algebra
- :mod:`repro.sim` -- discrete-event simulation engine
- :mod:`repro.mpi` -- message-passing substrate (Table 1 calibration)
- :mod:`repro.fs` -- per-I/O-node file-system model
- :mod:`repro.baselines` -- two-phase, traditional-caching,
  naive-striping and client-directed comparison strategies
- :mod:`repro.bench` -- experiment harness, statistics
- :mod:`repro.machine` -- the NAS SP2 machine specification
"""

from repro.core import (
    Array,
    ArrayGroup,
    ArrayLayout,
    BLOCK,
    NONE,
    PandaConfig,
    PandaRuntime,
    RunResult,
    best_disk_schema,
    predict_arrays,
)
from repro.faults import FaultRecoveryError, FaultSpec
from repro.machine import KB, MB, NAS_SP2, MachineSpec, sp2

__version__ = "2.0.0"

__all__ = [
    "Array",
    "ArrayGroup",
    "ArrayLayout",
    "BLOCK",
    "FaultRecoveryError",
    "FaultSpec",
    "KB",
    "MB",
    "MachineSpec",
    "NAS_SP2",
    "NONE",
    "PandaConfig",
    "PandaRuntime",
    "RunResult",
    "best_disk_schema",
    "predict_arrays",
    "sp2",
    "__version__",
]
