"""Many-tenant admission-plane workloads for the scale-out sweep.

One runner shared by ``benchmarks/bench_scale.py`` and the scale tests:
``n_ops`` single-rank tenants, each collectively writing one private
8 KB dataset, arrive at a fixed rate against ``n_io`` shared I/O nodes
whose admission plane is partitioned over ``n_shards`` shard masters.

The workload is deliberately the *opposite* of the paper-scale
benchmarks: the data plane is tiny (8 KB per op, eight 1 KB chunks on
servers 0..7, infinitely fast disks) so that nearly all of each op's
latency is admission -- REQUEST handling, queueing at the owning shard
master, the SCHED broadcast and the completion round-trip.  What the
sweep then measures is how that admission overhead scales with total
queue depth and with shard count, which is exactly the question the
dataset-partitioned masters exist to answer.

The workload is the catalogue's tenants family
(:class:`repro.workloads.catalog.TenantsParams`); its machine is the NAS
SP2 interconnect with two "modern deployment" overrides, documented on
:data:`~repro.workloads.catalog.SCALE_SPEC_OVERRIDES`.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.core.runtime import RunResult
from repro.core.scheduler import SchedStats
from repro.obs.slo import quantile
from repro.workloads.catalog import (
    DATASET_SHAPE,
    TenantsParams,
    build,
    scale_spec,
)

__all__ = [
    "DATASET_SHAPE",
    "run_many_tenants",
    "scale_metrics",
    "scale_spec",
]


def run_many_tenants(
    n_ops: int, n_io: int, n_shards: int,
) -> Tuple[RunResult, SchedStats]:
    """Run ``n_ops`` tenants (one rank, one private 8 KB write each,
    1000 arrivals per second) against ``n_io`` I/O nodes under
    ``n_shards`` shard masters; return the run result and the admission
    records."""
    built = build(TenantsParams(n_ops, n_io, n_shards))
    result = built.run()
    stats = built.runtime.sched_stats
    assert stats is not None
    return result, stats


def scale_metrics(stats: SchedStats) -> Dict[str, float]:
    """The sweep's figures of merit, from the scheduler records.

    - ``makespan`` -- first arrival to last completion, seconds;
    - ``admission_mean`` / ``admission_p99`` -- queue wait (arrival at
      the owning master -> SCHED broadcast) per op: the *admission
      overhead per op* the acceptance criterion bounds;
    - ``turnaround_spread`` -- max - min turnaround: the cross-shard
      fairness figure of merit;
    - ``queue_peak`` -- deepest any one master's queue got.
    """
    done = stats.completed_ops()
    if not done:
        raise ValueError("no completed ops to summarize")
    waits = sorted(r.queue_wait for r in done)
    return {
        "ops": len(done),
        "makespan": round(stats.makespan(), 6),
        "admission_mean": round(sum(waits) / len(waits), 6),
        "admission_p99": round(quantile(waits, 0.99), 6),
        "turnaround_spread": round(stats.turnaround_spread(), 6),
        "queue_peak": stats.queue_peak,
    }
