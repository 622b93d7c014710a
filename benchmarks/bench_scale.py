#!/usr/bin/env python
"""Sharded-admission scale-out sweep: tenants x shard-count grid.

Everything here is *simulated* seconds and therefore deterministic:
``--check`` demands an exact match against the committed
``BENCH_scale.json`` for every point it ran, plus the two headline
properties sharding exists for:

- **depth scaling** -- along the proportional diagonal (625 ops on 1
  shard, 2500 on 4, 10000 on 16: constant 625 ops per shard), the mean
  admission overhead per op must not grow with total queue depth;
- **fairness** -- at equal load, a sharded run's turnaround spread must
  stay within 2x of the single master's.

Each point runs N single-rank tenants, each writing one private 8 KB
dataset at a 1000 ops/s offered arrival rate, against shared I/O nodes
under the ``fair`` policy (see :mod:`repro.bench.scale` for the
workload's rationale and the modern-deployment machine constants).
The grid has two axes:

- *depth sweep* (64 I/O nodes): ops x shards, saturating the single
  master while sharded planes stay flat;
- *nodes sweep* (2500 ops): I/O-node count 64 -> 1024 at 1 and 16
  shards, showing admission overhead independent of cluster size.

Usage::

    python benchmarks/bench_scale.py            # full sweep, print
    python benchmarks/bench_scale.py --update   # rewrite BENCH_scale.json
    python benchmarks/bench_scale.py --smoke    # quick subset (100 ops)
    python benchmarks/bench_scale.py --smoke --check   # CI gate
    python benchmarks/bench_scale.py --smoke --check --out sweep.json
"""

from __future__ import annotations

import pathlib
import sys

import gate

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

DEPTH_N_IO = 64
DEPTH_OPS = (100, 625, 2500, 10000)
DEPTH_SHARDS = (1, 4, 16)
#: constant 625 ops per shard: the proportional-scaling diagonal.
DIAGONAL = ((625, 1), (2500, 4), (10000, 16))

NODES_OPS = 2500
NODES_N_IO = (64, 256, 1024)
NODES_SHARDS = (1, 16)

SMOKE_OPS = 100
SMOKE_SHARDS = (1, 4)

DESCRIPTION = (
    "Simulated sharded-admission scale sweep from "
    "benchmarks/bench_scale.py: N single-rank tenants each "
    "writing a private 8 KB dataset at 1000 ops/s offered "
    "load, fair policy, admission partitioned over K shard "
    "masters (depth sweep at 64 I/O nodes; nodes sweep at "
    "2500 tenants).  All values are simulated seconds and "
    "exactly reproducible; CI runs --smoke --check against "
    "them."
)


def run_point(n_ops: int, n_io: int, n_shards: int) -> dict:
    from repro.bench.scale import run_many_tenants, scale_metrics

    _result, stats = run_many_tenants(n_ops, n_io, n_shards)
    point = scale_metrics(stats)
    print(f"ops={n_ops:5d} n_io={n_io:4d} shards={n_shards:2d}  "
          f"makespan {point['makespan']:8.3f} s  "
          f"admission mean {point['admission_mean'] * 1e3:9.3f} ms  "
          f"p99 {point['admission_p99'] * 1e3:9.3f} ms  "
          f"spread {point['turnaround_spread']:7.3f} s")
    return point


def sweep(smoke: bool):
    for n_ops in (SMOKE_OPS,) if smoke else DEPTH_OPS:
        for k in SMOKE_SHARDS if smoke else DEPTH_SHARDS:
            yield (("depth_sweep", str(n_ops), str(k)),
                   run_point(n_ops, DEPTH_N_IO, k))
    if smoke:
        return
    for n_io in NODES_N_IO:
        for k in NODES_SHARDS:
            yield (("nodes_sweep", str(n_io), str(k)),
                   run_point(NODES_OPS, n_io, k))


def properties(committed: dict, fresh: dict) -> list:
    """The acceptance properties, against the committed full sweep."""
    failures = []
    depth = committed.get("depth_sweep", {})
    # depth scaling: admission overhead per op must not grow along the
    # proportional diagonal (simulated values are deterministic; 1e-9
    # only absorbs the committed 6-decimal rounding)
    diagonal = [depth.get(str(n), {}).get(str(k)) for n, k in DIAGONAL]
    if all(diagonal):
        pts = list(zip(DIAGONAL, diagonal))
        for ((n0, k0), p0), ((n1, k1), p1) in zip(pts, pts[1:]):
            if p1["admission_mean"] > p0["admission_mean"] + 1e-9:
                failures.append(
                    f"admission overhead grew along the diagonal: "
                    f"{n1} ops/{k1} shards {p1['admission_mean']:.6f} s > "
                    f"{n0} ops/{k0} shards {p0['admission_mean']:.6f} s")
    else:
        failures.append("diagonal incomplete in committed depth_sweep "
                        "(run --update without --smoke)")
    # fairness: sharded spread within 2x of the single master at equal load
    for row_key, row in depth.items():
        base = row.get("1")
        if base is None:
            continue
        for shards, point in row.items():
            if point["turnaround_spread"] > 2 * base["turnaround_spread"]:
                failures.append(
                    f"depth_sweep/{row_key}/{shards}: spread "
                    f"{point['turnaround_spread']:.6f} s exceeds 2x the "
                    f"single master's {base['turnaround_spread']:.6f} s")
    return failures


if __name__ == "__main__":
    sys.exit(gate.main(
        results=REPO_ROOT / "BENCH_scale.json", doc=__doc__,
        description=DESCRIPTION,
        smoke_help=f"run only the {SMOKE_OPS}-tenant points",
        sweep=sweep, properties=properties))
