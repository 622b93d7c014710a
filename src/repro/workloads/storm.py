"""The checkpoint-restart storm: N tenants checkpointing against a
shared deadline, with mixed restart reads.

The paper frames reads/writes as the primitives beneath "Panda's
timestep, checkpoint, and restart operations"; the pathological form of
that workload is every tenant checkpointing *at once* -- a coordinated
application sweep, a cluster-wide preemption warning, a periodic
barrier.  The catalogue's storm family (:class:`StormParams`, built by
:func:`repro.workloads.catalog.build`) synthesizes it deterministically,
and :func:`run_storm` runs one and reduces it to a :class:`StormReport`:

- ``n_tenants`` single-rank tenants each own a private dataset;
- each round, every tenant's checkpoint write arrives clustered at the
  round's deadline, skewed by a seeded per-tenant jitter
  (``burst_skew`` = 0 is a perfectly aligned thundering herd, 1 spreads
  arrivals over a whole deadline period);
- every ``restart_every``-th tenant follows its checkpoint with a
  restart *read* of the previous round's checkpoint (recovery traffic
  riding the same storm), verified byte-exact in real-payload mode;
- under the ``slo`` policy, shed ops (:class:`OpRejected`) are retried
  after a backoff, like a checkpoint library would.

Parameterized over burst skew, shard count and policy; composes with
fault injection (``faults``) and SLO shedding (``slo``).  Everything is
a pure function of ``StormParams``, so a storm can be captured by
:mod:`repro.replay` and replayed bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.core.runtime import PandaRuntime, RunResult
from repro.obs.slo import quantile
from repro.workloads.catalog import StormParams, build

__all__ = ["StormParams", "StormReport", "run_storm"]


@dataclass
class StormReport:
    """Outcome of one storm run."""

    params: StormParams
    runtime: PandaRuntime
    result: RunResult
    metrics: Dict[str, Any]
    #: per-tenant shed counts (client-visible OpRejected, incl. retries).
    rejections: Dict[int, int] = field(default_factory=dict)
    #: tenants whose checkpoint never got through ``max_attempts``.
    gave_up: List[str] = field(default_factory=list)
    #: real-payload mode: restart reads whose bytes mismatched.
    corrupt: List[str] = field(default_factory=list)


def run_storm(
    params: StormParams,
    runtime_hook: Optional[Callable[[PandaRuntime], None]] = None,
) -> StormReport:
    """Run one storm on a fresh runtime.  ``runtime_hook`` sees the
    runtime before the run starts (trace recorder, dispatch log)."""
    built = build(params)
    rt = built.runtime
    if runtime_hook is not None:
        runtime_hook(rt)
    result = built.run()
    stats = rt.sched_stats
    assert stats is not None
    completed = stats.completed_ops()
    turnarounds = sorted(r.turnaround for r in completed)
    metrics = {
        "policy": params.policy,
        "n_tenants": params.n_tenants,
        "n_shards": params.n_shards,
        "ops_completed": len(completed),
        "makespan": result.elapsed,
        "deadline_overshoot": result.elapsed
        - params.rounds * params.deadline,
        "turnaround_mean": stats.mean_turnaround(),
        "turnaround_spread": stats.turnaround_spread(),
        "turnaround_p99": quantile(turnarounds, 0.99) if turnarounds else 0.0,
        "shed": sum(t.total_shed for t in rt.slo_trackers.values()),
        "demoted": sum(t.total_demoted for t in rt.slo_trackers.values()),
        "client_rejections": sum(built.rejections.values()),
        "gave_up": len(built.gave_up),
        "corrupt": len(built.corrupt),
    }
    return StormReport(
        params=params, runtime=rt, result=result, metrics=metrics,
        rejections=built.rejections, gave_up=built.gave_up,
        corrupt=built.corrupt,
    )
