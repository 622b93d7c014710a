"""Happens-before over engine dispatch: footprints, vector clocks, and
the controlled scheduler that panda-mc drives, exhaustively or as a
seeded random walk.

The engine's schedule space is the set of linearizations of each run's
*dispatch frontier*: at every state, all queued entries carrying the
minimal timestamp are interchangeable candidates (entries are only ever
created by earlier dispatches, so causal order and time order are fixed;
see DESIGN.md section 9).  Two candidate dispatches are *independent*
when their dynamic footprints -- the Store/Resource objects they touch,
plus any shared state declared via :meth:`Simulator.mc_note` -- are
disjoint; swapping adjacent independent dispatches cannot change any
later enabledness or value.  The happens-before relation is the
transitive closure of

- **creation edges**: the dispatch that queued an entry precedes the
  dispatch of that entry (observed as the seq range created while the
  parent's callback ran);
- **conflict edges**: same-footprint dispatches in their executed order;
- **time edges**: every dispatch at an earlier simulated instant
  precedes every dispatch at a later one (the controller never reorders
  across timestamps).

Everything here is off the fast path: the controller only exists inside
:meth:`Simulator._run_instrumented`, and the Store/Resource ``note``
gates are single ``is not None`` tests that never fire in normal runs.

Soundness boundary (see DESIGN.md section 16): application callbacks
that share state *outside* engine primitives are invisible to the
footprint recorder unless they call ``sim.mc_note(key)``; the engine's
inline consumption of already-triggered waitables is treated as part of
its dispatching step, per the section-9 equivalence argument.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Decision",
    "ReplayDivergence",
    "ScheduleController",
    "SleepBlocked",
    "Step",
    "WalkController",
    "canonical_trace",
    "concurrent",
    "footprint_key",
    "vector_clocks",
]

#: a footprint element: a stable, schedule-independent name for one
#: piece of shared state.
FootKey = Any


class SleepBlocked(Exception):
    """Raised out of the dispatch loop when every frontier entry at the
    current state is in the sleep set: this execution is a redundant
    permutation of one the explorer already visited, so it is abandoned
    mid-run rather than completed and double-counted."""


class ReplayDivergence(AssertionError):
    """A forced replay saw a different frontier or produced a different
    decision than the recorded prefix -- the scenario is not
    deterministic under replay (e.g. it consulted wall-clock time or an
    unseeded PRNG), which voids the exploration."""


def footprint_key(obj: Any) -> FootKey:
    """A stable identity for a piece of shared state, equal across
    replays of different interleavings.

    Engine Stores/Resources are identified by class and construction
    name (the tree names every instance uniquely: ``mbox[3]``,
    ``out[1]``, ``disk0.arm`` ...).  Plain hashables -- the keys
    application code passes to :meth:`Simulator.mc_note` -- are used
    as-is.
    """
    name = getattr(obj, "name", None)
    if isinstance(name, str):
        return f"{type(obj).__name__}:{name}"
    return obj


@dataclass
class Step:
    """One dispatched entry in a controlled execution."""

    index: int  #: position in the executed schedule
    seq: int  #: engine sequence number of the dispatched entry
    time: float  #: simulated dispatch time
    label: str  #: stable content label (Simulator._dispatch_label)
    parent: int  #: step index whose callback created this entry (-1: setup)
    footprint: FrozenSet[FootKey] = frozenset()


@dataclass(frozen=True)
class Decision:
    """One frontier with more than one candidate: a branch point."""

    index: int  #: decision ordinal within the execution
    step_index: int  #: len(steps) when the decision was taken
    time: float
    frontier: Tuple[Tuple[int, str], ...]  #: (seq, label) per candidate
    chosen: int  #: seq of the dispatched candidate
    sleep: Tuple[int, ...]  #: seqs asleep at this state (pre-choice)


@dataclass
class _PendingStep:
    step: Step
    footprint: set = field(default_factory=set)


class ScheduleController:
    """Drives one controlled execution of a scenario.

    ``forced`` is the seq to choose at each successive *decision* (a
    frontier with >1 candidate); once exhausted, the controller picks
    the lowest-seq candidate not currently asleep (with an empty sleep
    set that is exactly the engine's normal (time, seq) order).
    ``branch_sleep`` (seq -> footprint), when given, *replaces* the
    running sleep set at decision index ``len(forced) - 1`` -- the
    explorer's branch point -- carrying the already-explored siblings;
    before that point sleep only matters for blocking, which a forced
    prefix never hits with a subset of the original sleep.

    After every executed step the sleep set is filtered: a sleeping
    entry stays asleep only while the executed steps are independent of
    it (disjoint footprints), per the classic sleep-set rule.
    """

    def __init__(
        self,
        forced: Sequence[int] = (),
        branch_sleep: Optional[Mapping[int, FrozenSet[FootKey]]] = None,
    ) -> None:
        self.forced = list(forced)
        self.branch_sleep = dict(branch_sleep) if branch_sleep else None
        #: running sleep set: entry seq -> footprint it had when put to sleep
        self.sleep: Dict[int, FrozenSet[FootKey]] = {}
        self.steps: List[Step] = []
        self.decisions: List[Decision] = []
        self.status = "running"  #: running|complete|sleep-blocked|deadlock|error
        self._parent_of: Dict[int, int] = {}  #: entry seq -> creating step index
        self._pending: Optional[_PendingStep] = None

    # -- engine-facing hooks (called from _run_instrumented) ------------

    def choose(self, t: float, frontier: List[Tuple[int, str]]) -> int:
        """Pick the index of the frontier entry to dispatch."""
        sleep = self.sleep
        if len(frontier) == 1:
            if frontier[0][0] in sleep:
                self.status = "sleep-blocked"
                raise SleepBlocked()
            return 0
        dec_index = len(self.decisions)
        if self.branch_sleep is not None and dec_index == len(self.forced) - 1:
            sleep = self.sleep = dict(self.branch_sleep)
        if dec_index < len(self.forced):
            chosen = self.forced[dec_index]
            if chosen in sleep:  # explorer never forces an asleep sibling
                raise ReplayDivergence(
                    f"forced choice {chosen} is asleep at decision {dec_index}"
                )
        else:
            chosen = -1
            for seq, _label in frontier:
                if seq not in sleep and (chosen < 0 or seq < chosen):
                    chosen = seq
            if chosen < 0:
                self.status = "sleep-blocked"
                raise SleepBlocked()
        self.decisions.append(
            Decision(
                index=dec_index,
                step_index=len(self.steps),
                time=t,
                frontier=tuple(frontier),
                chosen=chosen,
                sleep=tuple(sorted(sleep)),
            )
        )
        for idx, (seq, _label) in enumerate(frontier):
            if seq == chosen:
                return idx
        raise ReplayDivergence(
            f"forced choice {chosen} absent from frontier {frontier!r} "
            f"at decision {dec_index}"
        )

    def begin(self, t: float, seq: int, label: str) -> None:
        self._pending = _PendingStep(
            Step(
                index=len(self.steps),
                seq=seq,
                time=t,
                label=label,
                parent=self._parent_of.get(seq, -1),
            )
        )

    def note(self, obj: Any) -> None:
        """Record that the currently-dispatching callback touched
        ``obj`` (a Store/Resource, or an mc_note key)."""
        pending = self._pending
        if pending is not None:
            pending.footprint.add(footprint_key(obj))

    def end(self, pre_seq: int, post_seq: int) -> None:
        pending = self._pending
        assert pending is not None
        self._pending = None
        step = pending.step
        step.footprint = frozenset(pending.footprint)
        for child in range(pre_seq, post_seq):
            self._parent_of[child] = step.index
        self.steps.append(step)
        if self.sleep:
            fp = step.footprint
            if fp:
                self.sleep = {
                    z: zfp for z, zfp in self.sleep.items() if not (zfp & fp)
                }


class WalkController(ScheduleController):
    """One seeded random walk: at every frontier with more than one
    candidate, force a uniformly random one, drawn from a PRNG seeded
    by ``seed``.  No sleep set, so it trusts no declared footprint;
    seed *k* always takes the same schedule."""

    def __init__(self, seed: int) -> None:
        super().__init__()
        self._rng = random.Random(f"perturb:{seed}")

    def choose(self, t: float, frontier: List[Tuple[int, str]]) -> int:
        if len(frontier) > 1:
            self.forced.append(frontier[self._rng.randrange(len(frontier))][0])
        return super().choose(t, frontier)


# -- happens-before ------------------------------------------------------


def _pred_sets(steps: Sequence[Step]) -> List[set]:
    """Direct happens-before predecessors (as step indices) of each
    step: creation parent, per-footprint-key last toucher, and every
    step of the previous simulated instant."""
    preds: List[set] = [set() for _ in steps]
    last_touch: Dict[FootKey, int] = {}
    instant_start = 0  # first step index of the current instant
    for i, step in enumerate(steps):
        if i > 0 and step.time != steps[i - 1].time:
            instant_start = i
        if instant_start > 0:
            # all earlier-instant steps precede; the last one suffices
            # as a direct edge only transitively, so link them all
            preds[i].update(range(instant_start))
        if step.parent >= 0:
            preds[i].add(step.parent)
        for key in step.footprint:
            j = last_touch.get(key)
            if j is not None:
                preds[i].add(j)
            last_touch[key] = i
    return preds


def vector_clocks(steps: Sequence[Step]) -> List[List[int]]:
    """One clock per step over the step-index space: ``vc[i][k] == 1``
    iff step ``k`` happens-before-or-equals step ``i``.  Each dispatch
    is a unique event, so the clock is the characteristic vector of its
    causal history (the per-process counter form collapses to this when
    every event is its own process segment)."""
    n = len(steps)
    preds = _pred_sets(steps)
    clocks: List[List[int]] = []
    for i in range(n):
        vc = [0] * n
        for p in preds[i]:
            pvc = clocks[p]
            for k in range(p + 1):
                if pvc[k]:
                    vc[k] = 1
        vc[i] = 1
        clocks.append(vc)
    return clocks


def concurrent(clocks: Sequence[Sequence[int]], i: int, j: int) -> bool:
    """True when neither step happens-before the other."""
    if i == j:
        return False
    return not clocks[j][i] and not clocks[i][j]


def canonical_trace(steps: Sequence[Step]) -> Tuple[Tuple[str, str, Tuple[FootKey, ...]], ...]:
    """The canonical linearization of the execution's Mazurkiewicz
    trace: a greedy minimal topological order of the happens-before
    DAG, keyed by ``(time, label, footprint)``.  Two executions are
    order-equivalent iff their canonical traces are equal.

    Sequence numbers are deliberately excluded -- they are assigned in
    creation order, which differs between equivalent interleavings.
    Concurrent steps are assumed distinguishable by (time, label,
    footprint); that holds for everything the footprint recorder models
    (conflicting steps are HB-ordered, and distinct Stores/Resources
    have distinct names).
    """
    n = len(steps)
    preds = _pred_sets(steps)
    remaining = [len(p) for p in preds]
    succs: List[List[int]] = [[] for _ in steps]
    for i, ps in enumerate(preds):
        for p in ps:
            succs[p].append(i)

    def key(i: int) -> Tuple[str, str, Tuple[FootKey, ...]]:
        s = steps[i]
        return (
            s.time.hex(),
            s.label,
            tuple(sorted(s.footprint, key=repr)),
        )

    avail = sorted((key(i), i) for i in range(n) if remaining[i] == 0)
    out: List[Tuple[str, str, Tuple[FootKey, ...]]] = []
    import heapq as _heapq

    _heapq.heapify(avail)
    while avail:
        k, i = _heapq.heappop(avail)
        out.append(k)
        for s in succs[i]:
            remaining[s] -= 1
            if remaining[s] == 0:
                _heapq.heappush(avail, (key(s), s))
    assert len(out) == n, "happens-before graph has a cycle"
    return tuple(out)
