"""Workload generation: distributed arrays and SPMD driver apps.

Helpers that stand in for the scientific applications of the paper's
evaluation: deterministic global arrays, their decomposition into
per-rank chunks under a memory schema, and reusable application
generators (single-array write/read, the Figure 2 timestep/checkpoint
simulation) used by tests, examples and the benchmark harness, and the
scenario catalogue (:mod:`repro.workloads.catalog`): every named
workload the analysis tools, the replay corpus and the benches run.
"""

from repro.workloads.arrays import (
    distribute,
    gather_global,
    make_global_array,
    mesh_for,
)
from repro.workloads.apps import (
    read_array_app,
    write_array_app,
    write_read_roundtrip_app,
)
from repro.workloads.catalog import CATALOG, Built, build
from repro.workloads.storm import StormParams, StormReport, run_storm

__all__ = [
    "Built",
    "CATALOG",
    "StormParams",
    "StormReport",
    "build",
    "distribute",
    "gather_global",
    "make_global_array",
    "mesh_for",
    "read_array_app",
    "run_storm",
    "write_array_app",
    "write_read_roundtrip_app",
]
