"""Benchmark harness: experiment definitions and runners for every
table and figure of the paper's evaluation (see DESIGN.md section 4 and
EXPERIMENTS.md for the index).

- :mod:`repro.bench.harness` -- run one (n_compute, n_io, size, schema,
  disk-mode) point of a figure and compute aggregate and normalised
  throughput exactly as the paper defines them.
- :mod:`repro.bench.experiments` -- the figure/table definitions:
  parameter grids, peaks to normalise against, expected bands.
- :mod:`repro.bench.report` -- paper-style text rendering of result
  grids (one row per array size, one column per I/O-node count).
"""

from repro.bench.experiments import (
    EXPERIMENTS,
    Experiment,
    shape_for_mb,
)
from repro.bench.harness import (
    PointResult,
    run_figure,
    run_panda_point,
)
from repro.bench.report import format_figure, format_rows

__all__ = [
    "EXPERIMENTS",
    "Experiment",
    "PointResult",
    "format_figure",
    "format_rows",
    "run_figure",
    "run_panda_point",
    "shape_for_mb",
]
