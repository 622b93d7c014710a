"""Brute-force oracles the schema tests compare the fast paths with."""

import itertools


def iter_points(region):
    """Every point of ``region``, in row-major order (small regions
    only)."""
    return itertools.product(*map(range, region.lo, region.hi))
