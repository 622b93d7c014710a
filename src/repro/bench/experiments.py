"""The paper's experiment grid, one definition per figure.

Array sizes are the paper's 16-512 MB sweep; shapes are 3-D arrays of
doubles chosen so that doubling the size doubles one dimension (the
paper does not state exact shapes beyond "a single 3D array of size
16-512 MB" and the 512x512x512 example, so we use power-of-two shapes
whose total bytes match).

Expected bands come from the paper's text and are asserted (loosely) by
the benchmark suite:

- Figs 3/4: "from 85-98% of peak AIX performance at each i/o node";
- Figs 5/6: "near 90% of peak MPI performance in most cases", with
  normalised throughput declining for small arrays as the ~13 ms
  startup overhead dominates;
- Figs 7/8: "from 68-95% of peak AIX performance", slightly below
  natural chunking;
- Fig 9: "from 38-86% of peak MPI performance".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.machine import MB

__all__ = ["Experiment", "EXPERIMENTS", "shape_for_mb"]

#: 3-D shapes of float64 arrays totalling the given MB.
_SHAPES: Dict[int, Tuple[int, int, int]] = {
    16: (128, 128, 128),
    32: (128, 128, 256),
    64: (128, 256, 256),
    128: (256, 256, 256),
    256: (256, 256, 512),
    512: (256, 512, 512),
}


def shape_for_mb(size_mb: int) -> Tuple[int, int, int]:
    """Shape of the experiment array for a given size in MB."""
    try:
        shape = _SHAPES[size_mb]
    except KeyError:
        raise ValueError(
            f"no canonical shape for {size_mb} MB; known: {sorted(_SHAPES)}"
        ) from None
    assert shape[0] * shape[1] * shape[2] * 8 == size_mb * MB
    return shape


@dataclass(frozen=True)
class Experiment:
    """One figure of the paper."""

    figure: str
    title: str
    kind: str  # "read" | "write"
    n_compute: int
    ionodes: Tuple[int, ...]
    sizes_mb: Tuple[int, ...]
    disk_schema: str  # "natural" | "traditional"
    fast_disk: bool
    #: (lo, hi) expected normalised-throughput band from the paper's text
    band: Tuple[float, float]

    def shape(self, size_mb: int) -> Tuple[int, int, int]:
        return shape_for_mb(size_mb)


_SIZES = (16, 32, 64, 128, 256, 512)

EXPERIMENTS: Dict[str, Experiment] = {
    e.figure: e
    for e in [
        Experiment(
            "fig3", "read, natural chunking, 8 compute nodes",
            "read", 8, (2, 4, 8), _SIZES, "natural", False, (0.85, 0.98),
        ),
        Experiment(
            "fig4", "write, natural chunking, 8 compute nodes",
            "write", 8, (2, 4, 8), _SIZES, "natural", False, (0.85, 0.98),
        ),
        Experiment(
            "fig5", "read, natural chunking, 32 compute nodes, fast disk",
            "read", 32, (2, 4, 8), _SIZES, "natural", True, (0.60, 0.95),
        ),
        Experiment(
            "fig6", "write, natural chunking, 32 compute nodes, fast disk",
            "write", 32, (2, 4, 8), _SIZES, "natural", True, (0.60, 0.95),
        ),
        Experiment(
            "fig7", "read, traditional order on disk, 32 compute nodes",
            "read", 32, (2, 4, 6, 8), _SIZES, "traditional", False,
            (0.68, 0.95),
        ),
        Experiment(
            "fig8", "write, traditional order on disk, 32 compute nodes",
            "write", 32, (2, 4, 6, 8), _SIZES, "traditional", False,
            (0.68, 0.95),
        ),
        Experiment(
            "fig9", "write, traditional order, 16 compute nodes, fast disk",
            "write", 16, (2, 4, 6, 8), _SIZES, "traditional", True,
            (0.38, 0.86),
        ),
    ]
}
