"""Admission control and inter-op scheduling for concurrent collectives.

The paper's Panda serves one collective operation at a time: the master
server takes the next REQUEST only after the previous op completed, so
concurrent client groups queue head-of-line (see the ``io_sharing``
study of ``benchmarks/bench_paper.py``).  That is admission control with one
in-flight slot, and it is how :mod:`repro.core.server` runs it: the one
server loop under a fifo, one-slot discipline.  This module is the
layer a production deployment needs once many applications share the
I/O nodes: multiple collective operations in flight on the same
servers, interleaved at **sub-chunk granularity** under a pluggable
policy.

Architecture (all messaging stays in :mod:`repro.core.server`; this
module is pure scheduling state):

- The master server keeps a bounded :class:`AdmissionQueue` of arrived
  REQUESTs.  Backpressure is physical: while the queue is full the
  master simply does not take further REQUESTs out of its mailbox, so
  the queue length never exceeds its bound.
- Admission fills up to ``max_in_flight`` concurrent slots.  An op is
  *eligible* when it conflicts with no in-flight op and no
  earlier-arrived queued op (two ops conflict when they touch the same
  dataset and either writes) -- same-dataset ops therefore serialize in
  arrival order, which is what makes every interleaving byte-equivalent
  to the serial execution (``tests/test_scheduler_equivalence.py``).
- On admission the master broadcasts a :class:`SchedOp` (tag SCHED)
  carrying the op plus identical scheduling metadata to every server,
  so each server's policy makes the same decisions with no server-to-
  server communication -- preserving the paper's architectural rule.
- Each server runs one :class:`ServerScheduler`: the policy picks which
  admitted op's *next sub-chunk* to service; within an op, sub-chunks
  are always issued in plan order against the op's own file, so each
  op's per-file sequentiality guarantee is untouched.

Policies (deterministic, per-server, identical inputs on all servers):

- ``fifo``   -- run admitted ops to completion in arrival order.
- ``sjf``    -- shortest job first by the :mod:`~repro.core.costmodel`
  elapsed-time estimate, preemptive at sub-chunk boundaries; admission
  also prefers the shortest eligible queued op.
- ``fair``   -- deficit round-robin in bytes over the in-flight ops,
  weighted by each op's ``priority`` (a weight-2 op receives twice the
  service of a weight-1 op while both are active).

Sharded admission (``n_shards > 1``): the single master is replaced by
``n_shards`` *shard masters* (server indices ``0..n_shards-1``), each
owning the datasets a consistent-hash :class:`ShardMap` assigns to it.
Clients route each REQUEST to the owning shard master; each shard
master runs its own bounded :class:`AdmissionQueue` and SCHED broadcast
group.  Admission sequence numbers interleave (shard *s* issues
``b + s, b + s + n_shards, ...`` from the run's base *b*, a multiple of
``n_shards`` above every number an earlier run of the runtime issued)
so ``admit_seq`` stays unique for the runtime's lifetime and doubles as
the completion-routing key: the shard of an op is
``admit_seq % n_shards``.  Because the hash is per-dataset,
same-dataset ops always meet at the same shard, so the per-shard
conflict check preserves the serial-equivalence invariant unchanged.
Cross-shard fairness is the same priority-weighted DRR: every server
applies identical weights to whatever mix of shards' ops it holds, so a
tenant's global share holds without any cross-shard communication
(which would be dispatch-order-dependent and break determinism).

This module imports nothing from the rest of :mod:`repro.core` at
module level so that :mod:`repro.core.config` can import
:class:`SchedulerConfig` without an import cycle.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Any, Deque, Dict, Iterable, List,
                    Optional, Set, Tuple)

from repro.obs.slo import SLOBudget

if TYPE_CHECKING:  # avoid import cycles; annotations are strings
    from repro.core.protocol import CollectiveOp
    from repro.core.recovery import RecoveryAssignment

__all__ = [
    "AdmissionQueue",
    "NoLiveShardError",
    "OpProgress",
    "OpSchedRecord",
    "SchedOp",
    "SchedStats",
    "SchedulerConfig",
    "SLOPolicy",
    "ServerScheduler",
    "ShardMap",
]

POLICIES = ("fifo", "sjf", "fair", "slo")

#: fair-share deficit quantum in bytes per DRR round, scaled by each
#: op's weight: the paper's 1 MB sub-chunk, so a weight-1 op earns
#: about one sub-chunk of service per visit.
DRR_QUANTUM = 1 << 20
#: points each shard contributes to the :class:`ShardMap` ring.
VNODES = 64


class NoLiveShardError(RuntimeError):
    """Every shard master on the ring is dead: there is no server left
    that could own the dataset, so the op cannot even be requested.

    Typed (rather than a bare ``ValueError``) so the client retry path
    can distinguish "the admission plane is gone" -- a clean, traced
    operation failure -- from a programming error, and surface it as
    :class:`~repro.faults.FaultRecoveryError` to the application."""

    def __init__(self, dataset: str) -> None:
        super().__init__(
            f"no live shard on the ring for dataset {dataset!r}: "
            "every shard master is dead")
        self.dataset = dataset


@dataclass(frozen=True)
class SchedulerConfig:
    """Turns on the inter-op scheduler.

    Attach via ``PandaConfig(scheduler=SchedulerConfig(policy="fair"))``.
    ``scheduler=None`` (the default) runs the same server loop under
    the paper's one-op-at-a-time discipline (fifo, one in-flight slot,
    no per-completion charge, REQUESTs read only when idle, no
    admission accounting -- see ``repro.core.server._Discipline``), with
    every simulated timing of the paper path bit-identical.
    """

    #: service policy: "fifo", "sjf" or "fair" (see module docstring).
    policy: str = "fifo"
    #: concurrent operations in service at once; further admissions wait.
    max_in_flight: int = 4
    #: bounded admission queue: REQUESTs beyond this stay in the master's
    #: mailbox (backpressure), so the queue never exceeds this length.
    queue_limit: int = 16
    #: admission-plane shards.  1 (the default) is the paper's single
    #: master server, bit-identical to every earlier timing.  k > 1
    #: partitions datasets over shard masters 0..k-1 by consistent
    #: hash; each shard master runs its own queue and max_in_flight /
    #: queue_limit budget.
    n_shards: int = 1
    #: per-tenant latency budget for the ``slo`` policy
    #: (:class:`repro.obs.slo.SLOBudget`).  ``None`` under ``slo``
    #: still tracks per-tenant latency but never demotes or sheds --
    #: the policy then services exactly like ``fair``.
    slo: Optional[SLOBudget] = None

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ValueError(
                f"unknown scheduling policy {self.policy!r}; "
                f"known: {POLICIES}"
            )
        if self.slo is not None and self.policy != "slo":
            raise ValueError(
                f"an SLO budget needs policy='slo', got {self.policy!r}"
            )
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        if self.queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        if self.n_shards < 1:
            raise ValueError("n_shards must be >= 1")


@dataclass(frozen=True)
class SchedOp:
    """Wire payload of the admission broadcast, (shard) master ->
    participant servers (tag SCHED; SCHEMA on the paper path): one
    admitted op plus the scheduling metadata every server's policy needs
    to make identical decisions, and (fault mode) the degraded-mode
    directives.

    ``skip`` lists server indices whose normal plan portion must not be
    executed: currently-crashed nodes, and (for reads) indices whose
    data was relocated at write time.  ``recoveries`` carries the
    relocated work, each assignment addressed to one survivor."""

    op: "CollectiveOp"
    #: arrival sequence number at the master -- unique across groups for
    #: the lifetime of the runtime, so it disambiguates ops whose
    #: per-group ``op_id`` collide (two groups both start at op 0).
    admit_seq: int
    #: cost-model elapsed-time estimate (the SJF key).
    estimate: float
    #: DRR service weight fixed by the admitting master's policy at
    #: admission time (the ``slo`` policy demotes over-budget tenants
    #: to weight 1 and boosts healthy ones).
    weight: int
    skip: Tuple[int, ...] = ()
    recoveries: Tuple["RecoveryAssignment", ...] = ()
    #: index of the shard master that admitted this op; completions
    #: (SERVER_DONE) route back to server rank ``shard``.  Always 0 in
    #: single-master mode.
    shard: int = 0


# -- dataset -> shard-master routing -----------------------------------------

def _hash_point(label: str) -> int:
    """64-bit point on the hash ring.  sha256 so the placement is
    stable across processes and Python versions (``hash()`` is
    per-process salted)."""
    return int.from_bytes(hashlib.sha256(label.encode()).digest()[:8], "big")


class ShardMap:
    """Consistent-hash ring mapping dataset names to shard masters.

    Each shard contributes :data:`VNODES` points on a 64-bit ring; a
    dataset is owned by the shard whose point first follows the
    dataset's hash (clockwise, wrapping).  The classic properties hold
    by construction and are property-tested in ``tests/test_sharding.py``:

    - **total coverage** -- every dataset has exactly one owner;
    - **balance** -- with enough points the per-shard share concentrates
      around ``1/n_shards``;
    - **minimal relocation** -- removing a shard (``live`` excludes it)
      moves only the datasets that shard owned, each to the next live
      point on the ring; adding shard *n* moves only the datasets that
      now hash to one of shard *n*'s points.  Crash re-partition of a
      shard master's queue is exactly the ``live``-restricted lookup.
    """

    def __init__(self, n_shards: int) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        self.n_shards = n_shards
        points = [
            (_hash_point(f"shard:{s}:{v}"), s)
            for s in range(n_shards)
            for v in range(VNODES)
        ]
        points.sort()
        self._points: List[Tuple[int, int]] = points
        self._keys: List[int] = [h for h, _ in points]

    def owner(self, dataset: str, live: Optional[Set[int]] = None) -> int:
        """The shard owning ``dataset``.  With ``live``, dead shards'
        points are skipped, so ownership falls through to the next live
        shard clockwise -- the minimal-relocation re-partition."""
        key = _hash_point(f"ds:{dataset}")
        start = bisect_left(self._keys, key)
        n = len(self._points)
        for step in range(n):
            _, shard = self._points[(start + step) % n]
            if live is None or shard in live:
                return shard
        raise NoLiveShardError(dataset)

    def shares(self, datasets: Iterable[str],
               live: Optional[Set[int]] = None) -> Dict[int, int]:
        """Dataset count per owning shard (balance diagnostics)."""
        out: Dict[int, int] = {}
        for ds in datasets:
            s = self.owner(ds, live)
            out[s] = out.get(s, 0) + 1
        return out


# -- per-server execution state ---------------------------------------------

@dataclass
class _Segment:
    """One file's worth of contiguous work: the op's own plan portion,
    or one recovery assignment relocated to this server."""

    file_name: str
    items: tuple


class OpProgress:
    """One op's execution cursor on one server.

    ``segments`` are processed strictly in order, and items within a
    segment strictly in plan order -- the per-file sequentiality
    invariant.  The scheduler only ever interleaves *between* ops."""

    __slots__ = ("sched", "op", "segments", "seg_index", "item_index",
                 "fh", "moved", "deficit")

    def __init__(self, sched: SchedOp, segments: List[_Segment]) -> None:
        self.sched = sched
        self.op = sched.op
        self.segments = segments
        self.seg_index = 0
        self.item_index = 0
        self.fh: Any = None  #: open FileHandle of the current segment
        self.moved = 0
        self.deficit = 0.0  #: fair-share deficit counter, bytes

    @property
    def done(self) -> bool:
        return self.seg_index >= len(self.segments)

    @property
    def next_nbytes(self) -> int:
        """Size of the next sub-chunk (0 when only the segment close /
        fsync remains)."""
        seg = self.segments[self.seg_index]
        if self.item_index < len(seg.items):
            return seg.items[self.item_index].nbytes
        return 0


# -- policies ----------------------------------------------------------------

class _Policy:
    """Service-order policy: which active op's next sub-chunk to issue.
    All state updates are driven by admission order and byte counts, so
    every server reaches identical decisions independently."""

    name = "base"
    #: the admission key is monotone in arrival order, so the first
    #: eligible entry in seq order is the minimum -- the queue's
    #: admission scan can stop at the first hit.  SJF keys on the
    #: estimate, SLO on the demotion flag, and both must scan every
    #: eligible entry.
    admission_by_seq = True

    def admission_key(self, entry: "OpSchedRecord") -> tuple:
        """Sort key among *eligible* queued ops at admission time."""
        return (entry.admit_seq,)

    def drr_weight(self, priority: int, demoted: bool) -> int:
        """The DRR service weight stamped into the SCHED payload at
        admission.  The base rule is the historical priority weight;
        the SLO policy overrides it to demote over-budget tenants.
        ``CollectiveOp`` already rejects a priority below 1."""
        return priority

    def admitted(self, p: OpProgress) -> None:
        pass

    def finished(self, p: OpProgress) -> None:
        pass

    def charged(self, p: OpProgress, nbytes: int) -> None:
        pass

    def select(self, active: Dict[int, OpProgress]) -> OpProgress:
        """The op to service next, out of the scheduler's non-empty
        ``admit_seq -> progress`` map (read in place, never copied)."""
        raise NotImplementedError


class FifoPolicy(_Policy):
    """Run admitted ops to completion in admission order."""

    name = "fifo"

    def select(self, active: Dict[int, OpProgress]) -> OpProgress:
        return active[min(active)]


class SJFPolicy(_Policy):
    """Shortest estimated job first, preemptive at sub-chunk
    boundaries: a newly admitted shorter op takes over at the next
    boundary.  Ties break by admission order."""

    name = "sjf"
    admission_by_seq = False

    def admission_key(self, entry: "OpSchedRecord") -> tuple:
        return (entry.estimate, entry.admit_seq)

    def select(self, active: Dict[int, OpProgress]) -> OpProgress:
        return min(active.values(), key=lambda p: (p.sched.estimate,
                                                   p.sched.admit_seq))


class FairSharePolicy(_Policy):
    """Deficit round-robin in bytes, weighted by op priority.

    Each op accumulates ``DRR_QUANTUM * weight`` bytes of credit per
    rotation visit and is serviced while its credit covers the next
    sub-chunk -- so over time each active op receives service
    proportional to its weight, regardless of sub-chunk sizes."""

    name = "fair"

    def __init__(self) -> None:
        self._ring: Deque[int] = deque()

    def admitted(self, p: OpProgress) -> None:
        self._ring.append(p.sched.admit_seq)

    def finished(self, p: OpProgress) -> None:
        self._ring.remove(p.sched.admit_seq)

    def charged(self, p: OpProgress, nbytes: int) -> None:
        p.deficit -= nbytes

    def select(self, active: Dict[int, OpProgress]) -> OpProgress:
        while True:
            p = active[self._ring[0]]
            if p.deficit >= p.next_nbytes:
                return p
            p.deficit += DRR_QUANTUM * p.sched.weight
            self._ring.rotate(-1)


#: healthy-tenant DRR weight multiplier under the ``slo`` policy: a
#: demoted op serves at weight 1, a healthy op at priority x this, so
#: a demoted tenant still progresses (no starvation) at 1/(4*priority)
#: of a healthy competitor's rate.
SLO_HEALTHY_BOOST = 4


class SLOPolicy(FairSharePolicy):
    """Fair share with SLO demotion (admission *and* service).

    The policy itself is pure: the owning shard master consults its
    :class:`repro.obs.slo.SLOTracker` once, at REQUEST enqueue, and
    stamps the verdict into the arrival (``demoted``) and the SCHED
    payload (``weight``), so every server replays identical decisions
    without seeing the tracker.  Admission orders healthy arrivals
    (FIFO among themselves) strictly before demoted ones; service is
    the same weighted DRR as ``fair`` with demoted ops at minimum
    weight.  Ops from tenants beyond the shed threshold never reach
    the queue at all (see the server's enqueue path)."""

    name = "slo"
    admission_by_seq = False

    def admission_key(self, entry: "OpSchedRecord") -> tuple:
        return (1 if entry.demoted else 0, entry.admit_seq)

    def drr_weight(self, priority: int, demoted: bool) -> int:
        if demoted:
            return 1
        return priority * SLO_HEALTHY_BOOST


def make_policy(config: SchedulerConfig) -> _Policy:
    if config.policy == "fifo":
        return FifoPolicy()
    if config.policy == "sjf":
        return SJFPolicy()
    if config.policy == "slo":
        return SLOPolicy()
    return FairSharePolicy()


class ServerScheduler:
    """One server's view of the in-flight op set plus the policy that
    orders their sub-chunk service."""

    def __init__(self, config: SchedulerConfig, server_index: int) -> None:
        self.config = config
        self.server_index = server_index
        self.policy = make_policy(config)
        self.active: Dict[int, OpProgress] = {}

    @property
    def idle(self) -> bool:
        return not self.active

    def start(self, sched: SchedOp, plan: Any,
              assignments: tuple) -> OpProgress:
        """Begin executing one admitted op on this server: its own plan
        portion (unless directed to skip it) followed by any recovery
        assignments relocated here."""
        segments: List[_Segment] = []
        if self.server_index not in sched.skip:
            segments.append(_Segment(plan.file_name, plan.items))
        for a in assignments:
            segments.append(_Segment(a.file_name, a.items))
        p = OpProgress(sched, segments)
        self.active[sched.admit_seq] = p
        self.policy.admitted(p)
        return p

    def pick(self) -> Optional[OpProgress]:
        """The op whose next sub-chunk this server should issue, or
        None when no admitted op has work left.  ``active`` never holds
        a finished op: the server calls :meth:`finish` in the same step
        that exhausts an op's last segment."""
        if not self.active:
            return None
        return self.policy.select(self.active)

    def finish(self, p: OpProgress) -> None:
        del self.active[p.sched.admit_seq]
        self.policy.finished(p)


# -- master-side admission ---------------------------------------------------

@dataclass(eq=False, slots=True)
class OpSchedRecord:
    """One op's admission at its shard master, from its REQUEST's
    arrival to its OP_DONE: built by :meth:`AdmissionQueue.push`, then filled in
    place as the master admits, credits and completes the op.
    Accounted disciplines file it in :attr:`SchedStats.records` at
    enqueue; the paper discipline never does."""

    admit_seq: int
    op: "CollectiveOp"
    estimate: float
    arrived: float
    #: ``slo`` policy: the tenant was over budget when this REQUEST
    #: arrived.  Fixed at enqueue (deterministic: one decision at one
    #: instant in the shard master's loop) and never re-evaluated.
    demoted: bool = False
    admitted: Optional[float] = None
    completed: Optional[float] = None
    #: bytes credited so far by the servers' SERVER_DONEs
    credited: int = 0
    #: in flight only (:meth:`finish` drops them, so a finished record
    #: pins no plan or recovery tuple): the admission broadcast, the
    #: servers that still owe a SERVER_DONE, and the relocations to
    #: persist at commit
    sched: Optional[SchedOp] = None
    owed: Optional[Set[int]] = None
    pending_reloc: Optional[Dict[int, Tuple["RecoveryAssignment", ...]]] = None

    op_id = property(lambda self: self.op.op_id)
    group = property(lambda self: self.op.client_ranks)
    dataset = property(lambda self: self.op.dataset)
    kind = property(lambda self: self.op.kind)
    priority = property(lambda self: self.op.priority)

    @property
    def moved(self) -> int:
        """Bytes the op moved, once its OP_DONE is sent.  An admission
        that never completed (its shard master crashed; the op was
        admitted again elsewhere) moved nothing."""
        return 0 if self.completed is None else self.credited

    def finish(self, now: float) -> None:
        """Stamp the OP_DONE instant and drop the in-flight fields."""
        self.completed = now
        self.sched = self.owed = self.pending_reloc = None

    @property
    def queue_wait(self) -> float:
        """Arrival at the master -> admission (SCHED broadcast)."""
        if self.admitted is None:
            raise ValueError(f"op {self.admit_seq} was never admitted")
        return self.admitted - self.arrived

    @property
    def turnaround(self) -> float:
        """Arrival at the master -> OP_DONE sent."""
        if self.completed is None:
            raise ValueError(f"op {self.admit_seq} never completed")
        return self.completed - self.arrived


class AdmissionQueue:
    """A shard master's bounded arrival buffer.

    ``push`` refuses beyond ``limit`` -- but the server never lets it
    come to that: while the queue is full it stops taking REQUESTs out
    of its mailbox, which is where the backpressure actually lives.

    ``seq_start``/``seq_step`` interleave the sequence numbers of the
    admission shards: shard *s* of *k* issues ``b + s, b + s + k, ...``
    from the run's base *b* (the runtime's ``admit_base``, a multiple of
    *k*), so ``admit_seq`` stays unique without coordination and
    encodes its issuing shard as ``admit_seq % k``.  ``next_seq`` is the
    number the next push will issue.

    Internally the queue indexes arrivals by sequence number and by
    dataset, so one admission decision costs O(eligible-scan) instead
    of the former O(queue^2) full conflict cross-product -- the
    difference between a 10,000-op backlog being benchmarkable and not.
    Since ops conflict only within a dataset, an entry's "no earlier
    conflicting arrival" test needs only the entries of its own
    dataset, and seq-keyed policies (fifo/fair) stop at the first
    eligible entry (see ``_Policy.admission_by_seq``)."""

    def __init__(self, limit: int, policy: _Policy,
                 seq_start: int = 0, seq_step: int = 1) -> None:
        self.limit = limit
        self.policy = policy
        # dict preserves insertion order == ascending seq order
        self._q: Dict[int, OpSchedRecord] = {}
        self._by_dataset: Dict[str, List[OpSchedRecord]] = {}
        self.next_seq = seq_start
        self._seq_step = seq_step
        self.peak = 0

    def __len__(self) -> int:
        return len(self._q)

    @property
    def full(self) -> bool:
        return len(self._q) >= self.limit

    def push(self, op: "CollectiveOp", estimate: float,
             now: float, demoted: bool = False) -> OpSchedRecord:
        if self.full:
            raise RuntimeError(
                f"admission queue overflow (limit {self.limit}); the "
                "server must stop draining REQUESTs while the queue is "
                "full"
            )
        entry = OpSchedRecord(self.next_seq, op, estimate, now, demoted)
        self.next_seq += self._seq_step
        self._q[entry.admit_seq] = entry
        self._by_dataset.setdefault(op.dataset, []).append(entry)
        if len(self._q) > self.peak:
            self.peak = len(self._q)
        return entry

    def _earlier_conflict(self, entry: OpSchedRecord) -> bool:
        """Does an earlier-arrived queued op on the same dataset
        conflict with ``entry``?  (Cross-dataset ops never conflict.)"""
        for other in self._by_dataset[entry.op.dataset]:
            if other is entry:
                return False
            if other.op.kind == "write" or entry.op.kind == "write":
                return True
        return False

    def admissible(self, in_flight: Iterable[OpSchedRecord]
                   ) -> Optional[OpSchedRecord]:
        """The next arrival the policy may admit: conflict-free against
        every in-flight op and every *earlier-arrived* queued op (so
        same-dataset ops keep their arrival order -- the serial-
        equivalence invariant)."""
        # datasets blocked by in-flight ops: a write blocks everything
        # on its dataset, a read blocks only writes
        write_block: Set[str] = set()
        read_block: Set[str] = set()
        for r in in_flight:
            (write_block if r.kind == "write" else read_block).add(r.dataset)
        first_hit = self.policy.admission_by_seq
        best: Optional[OpSchedRecord] = None
        best_key: Optional[tuple] = None
        for e in self._q.values():  # ascending seq
            ds = e.op.dataset
            if ds in write_block or (e.op.kind == "write" and ds in read_block):
                continue
            if self._earlier_conflict(e):
                continue
            if first_hit:
                # admission_key is monotone in seq: first eligible wins
                return e
            key = self.policy.admission_key(e)
            if best_key is None or key < best_key:
                best, best_key = e, key
        return best

    def remove(self, entry: OpSchedRecord) -> None:
        del self._q[entry.admit_seq]
        bucket = self._by_dataset[entry.op.dataset]
        bucket.remove(entry)
        if not bucket:
            del self._by_dataset[entry.op.dataset]


# -- per-run metrics ---------------------------------------------------------

@dataclass
class SchedStats:
    """One run's scheduler observations, exposed on
    ``runtime.sched_stats``: created by the runtime for every scheduled
    run, at any shard count.  Each shard master files each op's
    :class:`OpSchedRecord` at enqueue, keyed by ``admit_seq``, and its
    own peaks."""

    policy: str
    n_shards: int = 1
    records: Dict[int, OpSchedRecord] = field(default_factory=dict)
    #: per shard: deepest admission queue, largest in-flight set
    queue_peaks: List[int] = field(init=False)
    in_flight_peaks: List[int] = field(init=False)

    def __post_init__(self) -> None:
        self.queue_peaks = [0] * self.n_shards
        self.in_flight_peaks = [0] * self.n_shards

    @property
    def queue_peak(self) -> int:
        """Deepest single-shard queue seen (per-shard backlogs are
        independent; the sum would double-count the sharding win)."""
        return max(self.queue_peaks)

    @property
    def in_flight_peak(self) -> int:
        """Deepest single-shard in-flight set (the per-shard
        ``max_in_flight`` budget is what it is bounded by)."""
        return max(self.in_flight_peaks)

    @property
    def ops(self) -> List[OpSchedRecord]:
        return [self.records[k] for k in sorted(self.records)]

    def completed_ops(self) -> List[OpSchedRecord]:
        return [r for r in self.ops if r.completed is not None]

    def makespan(self) -> float:
        """First arrival to last completion over completed ops."""
        done = self.completed_ops()
        if not done:
            return 0.0
        return (max(r.completed for r in done)
                - min(r.arrived for r in done))

    def turnaround_spread(self) -> float:
        """max - min turnaround over completed ops, across all shards:
        the latency-fairness figure of merit the fair-share policy is
        built to shrink."""
        ts = [r.turnaround for r in self.completed_ops()]
        return max(ts) - min(ts) if ts else 0.0

    def mean_turnaround(self) -> float:
        ts = [r.turnaround for r in self.completed_ops()]
        return sum(ts) / len(ts) if ts else 0.0

    def summary(self) -> str:
        """One line per completed op on a single master; one line per
        shard (the issuing shard is ``admit_seq % n_shards``) when
        sharded."""
        done = self.completed_ops()
        n = self.n_shards
        if n == 1:
            lines = [
                f"scheduler ({self.policy}): {len(done)} op(s) served, "
                f"queue peak {self.queue_peak}, "
                f"in-flight peak {self.in_flight_peak}"
            ]
            for r in done:
                lines.append(
                    f"  op {r.admit_seq:3d} {r.kind:5s} {r.dataset:20s} "
                    f"prio {r.priority} waited {r.queue_wait:7.3f} s, "
                    f"turnaround {r.turnaround:7.3f} s"
                )
            return "\n".join(lines)
        lines = [
            f"scheduler ({self.policy}, {n} shards): "
            f"{len(done)} op(s) served, "
            f"queue peak {self.queue_peak}/shard, "
            f"in-flight peak {self.in_flight_peak}/shard"
        ]
        for shard in range(n):
            ops = sum(1 for r in done if r.admit_seq % n == shard)
            lines.append(
                f"  shard {shard}: {ops} op(s), "
                f"queue peak {self.queue_peaks[shard]}, "
                f"in-flight peak {self.in_flight_peaks[shard]}"
            )
        return "\n".join(lines)
