"""Paper-style text rendering of benchmark results.

Each figure of the paper is a pair of bar charts -- aggregate MB/s and
normalised throughput, one group per I/O-node count, one bar per array
size.  We render the same data as two aligned tables, one row per array
size, one column per I/O-node count.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence

from repro.bench.harness import PointResult

__all__ = ["format_figure", "format_rows", "format_table1"]

#: Table 1's rows: the key in :func:`repro.bench.harness.measure_table1`,
#: the paper's label, how the measured value prints, the paper's value.
TABLE1_ROWS = (
    ("aix_read_mbps", "Measured peak AIX read throughput", "{:.2f} MB/s",
     "2.85 MB/s"),
    ("aix_write_mbps", "Measured peak AIX write throughput", "{:.2f} MB/s",
     "2.23 MB/s"),
    ("mpi_latency_us", "Message passing latency", "{:.0f} us", "43 us"),
    ("mpi_bandwidth_mbps", "Message passing bandwidth", "{:.1f} MB/s",
     "34 MB/s"),
    ("disk_rate_mbps", "Disk peak transfer rate", "{:.1f} MB/s", "3.0 MB/s"),
    ("fs_block_kb", "Node file system block size", "{} KB", "4 KB"),
    ("total_nodes", "Total nodes", "{}", "160"),
    ("node_memory_mb", "Memory per node", "{} MB", "128 MB"),
)


def format_rows(rows: Iterable[Sequence[str]], header: Sequence[str]) -> str:
    """Align a header + rows into a fixed-width table."""
    table = [list(header)] + [list(r) for r in rows]
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    lines = []
    for i, row in enumerate(table):
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def format_figure(figure: str, title: str,
                  grid: Dict[int, Dict[int, PointResult]]) -> str:
    """Render one figure's grid the way the paper reports it."""
    sizes = sorted(grid)
    ionodes = sorted(next(iter(grid.values())))
    header = ["array"] + [f"{n} ionodes" for n in ionodes]
    agg_rows = []
    norm_rows = []
    for mb in sizes:
        agg_rows.append(
            [f"{mb} MB"]
            + [f"{grid[mb][n].aggregate_mbps:.2f}" for n in ionodes]
        )
        norm_rows.append(
            [f"{mb} MB"]
            + [f"{grid[mb][n].normalized():.2f}" for n in ionodes]
        )
    out = [
        f"{figure}: {title}",
        "",
        "aggregate throughput (MB/s):",
        format_rows(agg_rows, header),
        "",
        "normalized throughput (per-ionode / peak):",
        format_rows(norm_rows, header),
    ]
    return "\n".join(out)


def format_table1(measured: Dict[str, float]) -> str:
    """Render :func:`~repro.bench.harness.measure_table1`'s values
    against the paper's Table 1."""
    rows = [[label, fmt.format(measured[key]), paper]
            for key, label, fmt, paper in TABLE1_ROWS]
    return ("table1: simulated machine vs the paper\n\n"
            + format_rows(rows, ["characteristic", "measured", "paper"]))
