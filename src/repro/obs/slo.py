"""Per-tenant latency SLO accounting for the admission plane.

A *tenant* is the master client rank of a collective group: the
identity an operator bills latency to.  Each shard master owns one
:class:`SLOTracker` and feeds it every completed op's admission wait
and turnaround; the tracker keeps rolling windows per tenant and
answers the two questions the ``slo`` admission policy
(:mod:`repro.core.scheduler`) asks at REQUEST-enqueue time:

- :meth:`SLOTracker.exhausted` -- is the tenant's rolling p99
  turnaround *strictly over* its budget?  (Over-budget tenants are
  demoted to the back of the admission order and serviced at minimum
  DRR weight.)
- :meth:`SLOTracker.should_shed` -- is it beyond ``shed_factor`` times
  the budget?  (Shed tenants' REQUESTs are rejected outright with a
  client-visible :class:`~repro.core.protocol.OpRejected`.)

Both answers are strict inequalities: a budget *exactly* met is
compliant.  A tenant with fewer than ``min_history`` samples is never
demoted or shed -- first ops carry no history and must be admitted
normally or the tracker could never learn their latency.  A tenant
quiet for ``cooloff`` simulated seconds is forgiven: its window is
cleared, so a shed tenant that backs off re-enters with a clean slate
(shed-then-recover).

Determinism: the tracker is pure bookkeeping driven by one shard
master's event loop -- samples arrive in that server's deterministic
completion order and decisions are made at deterministic enqueue
instants, so the whole SLO layer is as perturbation-proof as the
scheduler records it derives from.  There is deliberately *no*
cross-shard SLO gossip: a tenant's window lives on the shards that
serve its datasets, keeping every decision local and
dispatch-order-independent.

Everything here is stdlib-only so :mod:`repro.core.scheduler` (and
through it :mod:`repro.core.config`) can import :class:`SLOBudget`
without a cycle.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

__all__ = [
    "SLOBudget",
    "SLOTracker",
    "quantile",
    "render_slo",
    "summarize_slo",
]


def quantile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank quantile of an ascending list, exact and
    deterministic."""
    if not sorted_values:
        raise ValueError("quantile of empty window")
    n = len(sorted_values)
    idx = max(0, -(-round(q * 100) * n // 100) - 1)
    return sorted_values[idx]


@dataclass(frozen=True)
class SLOBudget:
    """One tenant-facing latency objective, attached via
    ``SchedulerConfig(policy="slo", slo=SLOBudget(...))``."""

    #: the objective: rolling p99 turnaround (arrival at the owning
    #: shard master -> OP_DONE) must stay <= this many simulated
    #: seconds.  Strictly exceeding it demotes the tenant.
    turnaround_p99: float
    #: rolling window length, samples per tenant.
    window: int = 64
    #: samples required before the tracker will demote or shed: a
    #: tenant's first ops have no history and are never penalized.
    min_history: int = 3
    #: shed threshold, as a multiple of the budget: p99 strictly above
    #: ``turnaround_p99 * shed_factor`` rejects new REQUESTs outright.
    shed_factor: float = 2.0
    #: simulated seconds of per-tenant quiet after which the window is
    #: forgiven (cleared), re-admitting a recovered tenant.  0 disables
    #: forgiveness.
    cooloff: float = 0.0

    def __post_init__(self) -> None:
        if self.turnaround_p99 <= 0:
            raise ValueError("turnaround_p99 budget must be > 0")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.min_history < 1:
            raise ValueError("min_history must be >= 1")
        if self.shed_factor < 1.0:
            raise ValueError("shed_factor must be >= 1 (shedding below "
                             "the demotion threshold is a contradiction)")
        if self.cooloff < 0:
            raise ValueError("cooloff must be >= 0")

    @property
    def shed_threshold(self) -> float:
        return self.turnaround_p99 * self.shed_factor


class _TenantWindow:
    """Rolling admission-wait / turnaround samples for one tenant."""

    __slots__ = ("waits", "turnarounds", "last_seen", "demoted_ops",
                 "shed_ops", "completed_ops")

    def __init__(self, window: int) -> None:
        self.waits: Deque[float] = deque(maxlen=window)
        self.turnarounds: Deque[float] = deque(maxlen=window)
        self.last_seen = 0.0
        self.demoted_ops = 0
        self.shed_ops = 0
        self.completed_ops = 0


class SLOTracker:
    """One shard master's per-tenant SLO bookkeeping.

    ``budget=None`` tracks latency (the observability half) but never
    demotes or sheds -- the configuration the ``slo`` policy degrades
    to when no :class:`SLOBudget` is attached.
    """

    def __init__(self, budget: Optional[SLOBudget] = None,
                 shard: int = 0) -> None:
        self.budget = budget
        self.shard = shard
        self._tenants: Dict[int, _TenantWindow] = {}
        window = budget.window if budget is not None else 64
        self._window_len = window

    # -- sample intake -----------------------------------------------------
    def record(self, tenant: int, queue_wait: float, turnaround: float,
               now: float) -> None:
        """One completed op's latency, in the shard master's
        deterministic completion order."""
        w = self._tenants.get(tenant)
        if w is None:
            w = self._tenants[tenant] = _TenantWindow(self._window_len)
        w.waits.append(queue_wait)
        w.turnarounds.append(turnaround)
        w.last_seen = now
        w.completed_ops += 1

    def note_demoted(self, tenant: int) -> None:
        self._tenants[tenant].demoted_ops += 1

    def note_shed(self, tenant: int, now: float) -> None:
        w = self._tenants[tenant]
        w.shed_ops += 1
        # a shed REQUEST is still a sighting: the cooloff clock measures
        # quiet, and a tenant hammering a shedding master is not quiet
        w.last_seen = now

    # -- queries -----------------------------------------------------------
    def _window(self, tenant: int, now: float) -> Optional[_TenantWindow]:
        """The tenant's window, after cooloff forgiveness."""
        w = self._tenants.get(tenant)
        if w is None:
            return None
        b = self.budget
        if (b is not None and b.cooloff > 0 and w.turnarounds
                and now - w.last_seen >= b.cooloff):
            w.waits.clear()
            w.turnarounds.clear()
        return w

    def turnaround_p99(self, tenant: int) -> Optional[float]:
        w = self._tenants.get(tenant)
        if w is None or not w.turnarounds:
            return None
        return quantile(sorted(w.turnarounds), 0.99)

    def exhausted(self, tenant: int, now: float) -> bool:
        """Strictly over budget (demotion threshold).  Never true
        without a budget, without ``min_history`` samples, or at a
        p99 exactly equal to the budget."""
        b = self.budget
        if b is None:
            return False
        w = self._window(tenant, now)
        if w is None or len(w.turnarounds) < b.min_history:
            return False
        return quantile(sorted(w.turnarounds), 0.99) > b.turnaround_p99

    def should_shed(self, tenant: int, now: float) -> bool:
        """Strictly over the shed threshold: reject the REQUEST."""
        b = self.budget
        if b is None:
            return False
        w = self._window(tenant, now)
        if w is None or len(w.turnarounds) < b.min_history:
            return False
        return quantile(sorted(w.turnarounds), 0.99) > b.shed_threshold

    # -- reporting ---------------------------------------------------------
    @property
    def tenants(self) -> Tuple[int, ...]:
        return tuple(sorted(self._tenants))

    @property
    def total_demoted(self) -> int:
        return sum(w.demoted_ops for w in self._tenants.values())

    @property
    def total_shed(self) -> int:
        return sum(w.shed_ops for w in self._tenants.values())

    def over_budget_tenants(self) -> Tuple[int, ...]:
        """Tenants whose current window is strictly over budget (no
        cooloff evaluation: a pure snapshot)."""
        b = self.budget
        if b is None:
            return ()
        out = []
        for t in self.tenants:
            w = self._tenants[t]
            if (len(w.turnarounds) >= b.min_history
                    and quantile(sorted(w.turnarounds), 0.99)
                    > b.turnaround_p99):
                out.append(t)
        return tuple(out)

    def samples(self) -> List[Tuple[str, float]]:
        """Prometheus-style samples, one set per tenant, matching the
        text conventions of :mod:`repro.obs.metrics`."""
        out: List[Tuple[str, float]] = []

        def lab(tenant: int) -> str:
            return f'{{shard="{self.shard}",tenant="{tenant}"}}'

        if self.budget is not None:
            out.append((
                f'panda_slo_budget_seconds{{shard="{self.shard}"}}',
                self.budget.turnaround_p99))
        for t in self.tenants:
            w = self._tenants[t]
            if w.turnarounds:
                srt = sorted(w.turnarounds)
                out.append((f"panda_slo_turnaround_p50{lab(t)}",
                            quantile(srt, 0.50)))
                out.append((f"panda_slo_turnaround_p99{lab(t)}",
                            quantile(srt, 0.99)))
            if w.waits:
                srt = sorted(w.waits)
                out.append((f"panda_slo_admission_wait_p50{lab(t)}",
                            quantile(srt, 0.50)))
                out.append((f"panda_slo_admission_wait_p99{lab(t)}",
                            quantile(srt, 0.99)))
            out.append((f"panda_slo_completed_total{lab(t)}",
                        float(w.completed_ops)))
            out.append((f"panda_slo_demoted_total{lab(t)}",
                        float(w.demoted_ops)))
            out.append((f"panda_slo_shed_total{lab(t)}",
                        float(w.shed_ops)))
        return out

    def summary(self) -> str:
        n = len(self._tenants)
        over = self.over_budget_tenants()
        line = (f"slo shard {self.shard}: {n} tenant(s), "
                f"{len(over)} over budget, "
                f"{self.total_demoted} demoted, {self.total_shed} shed")
        if self.budget is not None and over:
            worst = max(over, key=lambda t: self.turnaround_p99(t) or 0.0)
            line += (f"; worst tenant {worst} p99 "
                     f"{self.turnaround_p99(worst):.6f}s vs budget "
                     f"{self.budget.turnaround_p99:.6f}s")
        return line


def render_slo(trackers: Dict[int, SLOTracker]) -> str:
    """The Prometheus text block for a run's SLO trackers, appended
    after :meth:`repro.obs.metrics.MetricsRegistry.render`'s output."""
    lines = [
        "# HELP panda_slo Per-tenant latency SLO accounting "
        "(rolling windows, simulated seconds).",
    ]
    for shard in sorted(trackers):
        for name, value in trackers[shard].samples():
            lines.append(f"{name} {value:g}")
    return "\n".join(lines) + "\n"


def summarize_slo(trackers: Dict[int, SLOTracker]) -> str:
    """One human-readable line per shard for RunResult.describe()."""
    return "\n".join(trackers[s].summary() for s in sorted(trackers))
