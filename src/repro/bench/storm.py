"""Differential-replay storm comparison: one captured herd, every
policy.

The checkpoint-restart storm is captured **once**, under fifo, as a
:class:`repro.replay.WorkloadTrace`; every other policy then replays
the identical stimuli (same arrivals, same payloads, same faults --
none here) and only the schedule may move.  The comparison is therefore
apples-to-apples in a way independent per-policy runs are not: every
divergence in turnaround spread is attributable to admission order
alone, and the invariant *policy changes scheduling, never data* is
checked byte-for-byte against the capture's stored digest.

The ``slo`` point replays under a budget derived from the fifo capture
itself: the median of the per-tenant turnaround p99s.  The worse half
of the tenants is over budget and demoted, the better half is boosted
-- so the policy visibly reorders the herd -- while ``shed_factor`` is
set astronomically high so nothing is shed (a shed would change which
ops complete, breaking the data invariant).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.obs.slo import SLOBudget, quantile
from repro.replay.capture import TraceRecorder
from repro.replay.replayer import ReplayOutcome, replay
from repro.replay.trace import WorkloadTrace
from repro.workloads.catalog import CATALOG, StormParams, build

__all__ = ["CONTENDED_STORM", "FULL_STORM", "derive_budget",
           "run_storm_comparison"]

#: the canonical contended herd (simultaneous arrivals, mixed sizes, a
#: narrow admission pipe) and its full-scale point, from the catalogue.
CONTENDED_STORM = CATALOG["contended-storm"]
FULL_STORM = CATALOG["full-storm"]


def _tenant_p99s(stats: Any) -> List[float]:
    """Per-tenant turnaround p99 of one replayed run's admission
    schedule (tenant = the ``ckptN`` dataset prefix)."""
    per: Dict[int, List[float]] = {}
    for r in stats.ops:
        if r.turnaround is None:
            continue
        tenant = int(r.dataset.split(".")[0][4:])
        per.setdefault(tenant, []).append(r.turnaround)
    return [quantile(sorted(ts), 0.99) for _, ts in sorted(per.items())]


def derive_budget(base: ReplayOutcome) -> SLOBudget:
    """A demote-half-the-herd budget from the fifo capture: median of
    the per-tenant p99s, with shedding effectively disabled."""
    p99s = sorted(_tenant_p99s(base.run_stats[0]))
    return SLOBudget(turnaround_p99=quantile(p99s, 0.5), window=16,
                     min_history=2, shed_factor=1e9)


def _point(outcome: ReplayOutcome, stored_want: str) -> Dict[str, Any]:
    stats = outcome.run_stats[0]
    turnarounds = sorted(r.turnaround for r in stats.completed_ops())
    rt = outcome.runtime
    return {
        "turnaround_mean": stats.mean_turnaround(),
        "turnaround_spread": stats.turnaround_spread(),
        "turnaround_p99": quantile(turnarounds, 0.99),
        "makespan": outcome.results[0].elapsed,
        "ops_completed": len(turnarounds),
        "demoted": sum(t.total_demoted for t in rt.slo_trackers.values()),
        "shed": sum(t.total_shed for t in rt.slo_trackers.values()),
        "stored_equal": outcome.stored == stored_want,
    }


def run_storm_comparison(
        params: Optional[StormParams] = None) -> Dict[str, Any]:
    """Capture the herd under fifo, replay under every policy; return
    per-policy points plus the capture/replay invariants."""
    params = params or CONTENDED_STORM
    built = build(params)
    rec = TraceRecorder(built.runtime, name="bench-storm")
    built.run()
    trace = WorkloadTrace.loads(rec.trace().dumps())
    stored_want = trace.expect["stored"]

    base = replay(trace)
    budget = derive_budget(base)
    policies: Dict[str, Dict[str, Any]] = {
        "fifo": _point(base, stored_want)}
    for policy in ("sjf", "fair", "slo"):
        slo = budget if policy == "slo" else None
        alt = replay(trace, policy_override=policy, slo_override=slo)
        policies[policy] = _point(alt, stored_want)
    return {
        "params": {
            "n_tenants": params.n_tenants, "n_io": params.n_io,
            "rounds": params.rounds, "elements": params.elements,
            "size_classes": list(params.size_classes),
            "max_in_flight": params.max_in_flight, "seed": params.seed,
        },
        "budget_p99": budget.turnaround_p99,
        "replay_bit_exact": bool(base.ok),
        "n_events": trace.n_events,
        "policies": policies,
    }
