"""panda-mc: schedule-space model checking, exhaustive and sampled.

No simulated result may depend on the dispatch order of same-instant,
causally unordered events.  This module checks that in two modes over
the same scenarios, both driving the engine's instrumented dispatch
loop through a controller (:meth:`repro.sim.engine.Simulator.enable_controller`):

- the **search** (:class:`repro.analysis.hb.ScheduleController`): a
  stateless depth-first search over every same-instant dispatch
  decision, pruned by sleep-set partial-order reduction so exactly one
  execution per Mazurkiewicz trace is completed (two interleavings that
  only swap adjacent *independent* dispatches are the same trace and
  provably produce the same result; see DESIGN.md section 16);
- the **walk** (:class:`repro.analysis.hb.WalkController`): N seeded
  executions that each pick a uniformly random candidate at every
  frontier, with no sleep set.  Reduction trusts the footprints events
  declare (``sim.mc_note``); the walk trusts none, so shared state that
  a callback forgot to declare can still show up as a divergence.

Replay-from-prefix needs no snapshotting: the simulator is fully
deterministic, so re-running the scenario while forcing the recorded
choices reproduces every frontier exactly -- the controller asserts
this (:class:`repro.analysis.hb.ReplayDivergence`) instead of trusting
it.

At each complete execution, searched or walked, the checker tests:

- **divergence** (finding ``PL201``): the scenario fingerprint differs
  from the baseline schedule's -- a real order-dependence.  The report
  names the racing event pair: the two frontier candidates at the
  first decision where the diverging schedule left the baseline, which
  are HB-concurrent by construction.
- **deadlock** (``PL202``): the engine raised its deadlock error --
  live processes but an empty queue -- under some schedule.
- **orphan messages** (``PL203``): quiescence with messages still
  queued in a live rank's mailbox under some schedule (:func:`orphans`).

Budgets make the search safe to run anywhere: exploration stops after
``max_schedules`` executions and reports ``complete=False`` (CLI exit
code 3) rather than running unbounded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.analysis.hb import (
    Decision,
    ReplayDivergence,
    ScheduleController,
    SleepBlocked,
    WalkController,
)
from repro.core.runtime import PandaRuntime
from repro.replay.fingerprint import fingerprint
from repro.sim.engine import SimulationError
from repro.workloads.catalog import CATALOG, Spec, build

__all__ = [
    "MCFinding",
    "MCReport",
    "MCScenario",
    "MC_SCENARIOS",
    "Outcome",
    "ScenarioResult",
    "explore",
    "mc_scenario",
    "mc_scenarios",
    "orphans",
    "racy_fixture_scenario",
    "run_mc",
]


@dataclass
class Outcome:
    """What one controlled execution of a scenario produced."""

    status: str  #: complete | sleep-blocked | deadlock | error
    fingerprint: Optional[Tuple[str, ...]] = None
    orphans: int = 0  #: messages left in mailboxes at quiescence
    error: str = ""


@dataclass(frozen=True)
class MCScenario:
    """A scenario the model checker can drive: ``run(controller)``
    builds everything fresh, installs the controller on the simulator
    (``sim.enable_controller``), runs to quiescence, and returns an
    :class:`Outcome`."""

    name: str
    run: Callable[[ScheduleController], Outcome]


@dataclass(frozen=True)
class MCFinding:
    """One model-checking finding (rule PL201/PL202/PL203)."""

    rule: str
    scenario: str
    schedule: int  #: ordinal of the offending execution
    message: str
    #: for PL201: the two (label, footprint-keys) frontier candidates
    #: whose dispatch order the outcome depends on
    racing: Optional[Tuple[str, str]] = None
    walk: int = 0  #: seed of the random walk that found it (0: the search)

    def describe(self) -> str:
        run = f"walk {self.walk}" if self.walk else f"schedule {self.schedule}"
        head = f"{self.rule} {self.scenario} ({run}): {self.message}"
        if self.racing is not None:
            head += (
                f"\n    racing pair: {self.racing[0]}"
                f"\n              vs {self.racing[1]}"
            )
        return head


@dataclass
class ScenarioResult:
    """Exploration outcome for one scenario."""

    scenario: str
    schedules: int = 0  #: complete (non-equivalent) executions
    sleep_blocked: int = 0  #: redundant permutations pruned mid-run
    deadlocks: int = 0
    errors: int = 0
    steps: int = 0  #: dispatches in the baseline execution
    decisions: int = 0  #: branch points in the baseline execution
    walks: int = 0  #: seeded random walks taken after the search
    complete: bool = True  #: False when the budget stopped the search
    findings: List[MCFinding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings


@dataclass
class MCReport:
    """Outcome of one panda-mc sweep."""

    results: List[ScenarioResult] = field(default_factory=list)
    budget: int = 0

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    @property
    def complete(self) -> bool:
        return all(r.complete for r in self.results)

    def findings(self) -> List[MCFinding]:
        return [f for r in self.results for f in r.findings]

    def summary(self) -> str:
        lines = []
        for r in self.results:
            state = "exhaustive" if r.complete else "budget-bounded"
            lines.append(
                f"  {r.scenario}: {r.schedules} schedule(s) "
                f"({state}; {r.sleep_blocked} pruned, {r.steps} events, "
                f"{r.decisions} branch points; {r.walks} walk(s)), "
                f"{len(r.findings)} finding(s)"
            )
        head = (
            f"panda-mc: {len(self.results)} scenario(s), "
            f"{sum(r.schedules for r in self.results)} non-equivalent "
            f"schedule(s) checked"
        )
        body = "\n".join(lines)
        tail = ""
        findings = self.findings()
        if findings:
            tail = "\n" + "\n".join(f.describe() for f in findings)
        elif not self.complete:
            tail = "\nno findings, but the budget cut exploration short"
        else:
            tail = "\nall schedules bit-identical, deadlock-free, orphan-free"
        return f"{head}\n{body}{tail}"

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "complete": self.complete,
            "budget": self.budget,
            "scenarios": [
                {
                    "name": r.scenario,
                    "schedules": r.schedules,
                    "sleep_blocked": r.sleep_blocked,
                    "deadlocks": r.deadlocks,
                    "errors": r.errors,
                    "steps": r.steps,
                    "decisions": r.decisions,
                    "walks": r.walks,
                    "complete": r.complete,
                    "findings": [
                        {
                            "rule": f.rule,
                            "scenario": f.scenario,
                            "schedule": f.schedule,
                            "message": f.message,
                            "racing": list(f.racing) if f.racing else None,
                            "walk": f.walk,
                        }
                        for f in r.findings
                    ],
                }
                for r in self.results
            ],
        }


# -- the DFS over schedules ----------------------------------------------------


@dataclass
class _Node:
    """One branch point on the current DFS path."""

    frontier: Tuple[Tuple[int, str], ...]  #: (seq, label) candidates
    sleep: Dict[int, FrozenSet] = field(default_factory=dict)
    done: Dict[int, FrozenSet] = field(default_factory=dict)  #: explored siblings
    chosen: int = -1  #: current branch's choice
    chosen_label: str = ""


def _label_of(frontier: Sequence[Tuple[int, str]], seq: int) -> str:
    for s, label in frontier:
        if s == seq:
            return label
    return f"seq={seq}"


def _nodes_from(
    ctl: ScheduleController, start: int
) -> List[_Node]:
    """Build path nodes for the controller's decisions from decision
    ordinal ``start`` on, attaching each chosen step's footprint."""
    nodes: List[_Node] = []
    for dec in ctl.decisions[start:]:
        fp = frozenset()
        if dec.step_index < len(ctl.steps):
            step = ctl.steps[dec.step_index]
            assert step.seq == dec.chosen
            fp = step.footprint
        sleep = {
            seq: ctl_sleep
            for seq, ctl_sleep in _sleep_at(ctl, dec).items()
        }
        nodes.append(
            _Node(
                frontier=dec.frontier,
                sleep=sleep,
                done={dec.chosen: fp},
                chosen=dec.chosen,
                chosen_label=_label_of(dec.frontier, dec.chosen),
            )
        )
    return nodes


def _sleep_at(ctl: ScheduleController, dec: Decision) -> Dict[int, FrozenSet]:
    """Reconstruct the (seq -> footprint) sleep map at a decision from
    the controller's records.  The controller snapshots only the seqs;
    footprints live in the sleep dict it was *launched* with plus any
    sibling steps -- but every asleep seq was once a frontier candidate
    whose footprint the explorer recorded when it was executed in a
    sibling branch, and the explorer passes those in ``branch_sleep``.
    During the run the footprints never change, so the final sleep dict
    restricted to the snapshot seqs is exact for the tail decisions the
    explorer consumes (everything deeper than the branch point)."""
    full = dict(ctl.branch_sleep or {})
    full.update(ctl.sleep)
    return {seq: full.get(seq, frozenset()) for seq in dec.sleep}


def explore(
    scenario: MCScenario,
    max_schedules: int = 20000,
    reduce: bool = True,
    walks: int = 0,
) -> ScenarioResult:
    """Enumerate the scenario's schedule space depth-first, then take
    ``walks`` seeded random walks (seeds ``1..walks``).

    With ``reduce=True`` (the default) sleep sets prune equivalent
    interleavings, completing exactly one execution per Mazurkiewicz
    trace; ``reduce=False`` is the brute-force mode the property tests
    compare against.  A walk (:class:`WalkController`) picks at random
    at every frontier and uses no sleep set, so it trusts no declared
    footprint; its findings carry its seed."""
    name = scenario.name
    result = ScenarioResult(scenario=name)
    findings = result.findings
    executions = 0

    def check(ctl: ScheduleController, outcome: Outcome, where: str,
              walk: int = 0,
              racing: Optional[Tuple[str, str]] = None) -> None:
        """Count one finished execution and record what it found."""
        if not walk:
            result.schedules += 1
        found: List[MCFinding] = []
        if outcome.status == "deadlock":
            result.deadlocks += 1
            found.append(MCFinding(
                "PL202", name, executions - 1,
                outcome.error or "deadlock" + where, racing, walk))
        elif outcome.status == "error":
            result.errors += 1
            found.append(MCFinding(
                "PL200", name, executions - 1,
                outcome.error or "error" + where, walk=walk))
        else:
            if outcome.orphans:
                found.append(MCFinding(
                    "PL203", name, executions - 1,
                    f"{outcome.orphans} orphan message(s) queued at "
                    "quiescence" + where, walk=walk))
            if outcome.fingerprint != baseline_fp:
                found.append(_divergence_finding(
                    name, executions - 1, baseline_ctl, ctl,
                    baseline_fp, outcome.fingerprint, walk))
        findings.extend(found[:25 - len(findings)])

    # baseline: no forced choices, empty sleep -- the engine's normal
    # (time, seq) order
    baseline_ctl = ctl = ScheduleController()
    outcome = scenario.run(ctl)
    executions += 1
    assert outcome.status != "sleep-blocked", "baseline cannot be sleep-blocked"
    baseline_fp = outcome.fingerprint
    check(ctl, outcome, "")
    if outcome.status != "complete":
        return result  # even the default schedule fails; report and stop
    result.steps = len(ctl.steps)
    result.decisions = len(ctl.decisions)

    path = _nodes_from(ctl, 0)
    while True:
        # deepest node with an unexplored, awake sibling
        depth = -1
        nxt = -1
        for k in range(len(path) - 1, -1, -1):
            node = path[k]
            for seq, _label in node.frontier:
                if seq in node.done:
                    continue
                if reduce and seq in node.sleep:
                    continue
                depth, nxt = k, seq
                break
            if depth >= 0:
                break
        if depth < 0:
            break  # space exhausted
        if executions >= max_schedules:
            result.complete = False
            break

        node = path[depth]
        forced = [path[j].chosen for j in range(depth)] + [nxt]
        branch_sleep = dict(node.sleep)
        branch_sleep.update(node.done)
        if not reduce:
            branch_sleep = {}
        ctl = ScheduleController(forced=forced, branch_sleep=branch_sleep)
        outcome = scenario.run(ctl)
        executions += 1

        # fold the new execution into the path: shallow nodes unchanged,
        # the branch node flips to the new choice, deeper nodes replaced
        for j in range(depth):
            if ctl.decisions[j].frontier != path[j].frontier:
                raise ReplayDivergence(
                    f"{name}: frontier changed on replay at decision {j}"
                )
        chosen_fp = frozenset()
        if depth < len(ctl.decisions):
            dec = ctl.decisions[depth]
            if dec.step_index < len(ctl.steps):
                step = ctl.steps[dec.step_index]
                if step.seq == nxt:
                    chosen_fp = step.footprint
        node.done[nxt] = chosen_fp
        prev_chosen_label = node.chosen_label
        node.chosen = nxt
        node.chosen_label = _label_of(node.frontier, nxt)
        del path[depth + 1:]
        path.extend(_nodes_from(ctl, depth + 1))

        if outcome.status == "sleep-blocked":
            result.sleep_blocked += 1
            continue
        check(ctl, outcome, " under a reordered schedule", racing=(
            f"{prev_chosen_label} (baseline path)",
            f"{node.chosen_label} (deadlocking path)",
        ))

    for seed in range(1, walks + 1):
        ctl = WalkController(seed)
        outcome = scenario.run(ctl)
        executions += 1
        result.walks += 1
        check(ctl, outcome, f" under walk {seed}", walk=seed)
    return result


def _divergence_finding(
    name: str,
    schedule: int,
    base: ScheduleController,
    other: ScheduleController,
    base_fp: Optional[Tuple[str, ...]],
    other_fp: Optional[Tuple[str, ...]],
    walk: int = 0,
) -> MCFinding:
    """Name the racing event pair: the baseline's and the diverging
    execution's choices at the first decision where their schedules
    split.  Both were candidates on the *same* frontier, so they are
    co-enabled and HB-concurrent; their recorded footprints tell the
    reader which shared state the order was decided over."""
    split = None
    for i, (a, b) in enumerate(zip(base.decisions, other.decisions)):
        if a.chosen != b.chosen:
            split = i
            break
    if split is None:
        return MCFinding(
            "PL201", name, schedule,
            "fingerprint diverged but schedules agree on every branch "
            "point (hidden nondeterminism outside the dispatch order?)",
            walk=walk,
        )
    a = base.decisions[split]
    b = other.decisions[split]

    def describe(ctl: ScheduleController, dec: Decision) -> str:
        label = _label_of(dec.frontier, dec.chosen)
        fp: FrozenSet = frozenset()
        if dec.step_index < len(ctl.steps):
            step = ctl.steps[dec.step_index]
            if step.seq == dec.chosen:
                fp = step.footprint
        keys = ", ".join(sorted(map(str, fp))) or "no recorded footprint"
        return f"t={dec.time:.9f} {label} [{keys}]"

    mism = sum(
        1 for x, y in zip(base_fp or (), other_fp or ()) if x != y
    )
    return MCFinding(
        "PL201", name, schedule,
        f"result depends on dispatch order ({mism} fingerprint "
        f"field(s) differ); first diverging decision is #{split}",
        racing=(describe(base, a), describe(other, b)),
        walk=walk,
    )


# -- scenarios -----------------------------------------------------------------

#: the checked set, in report order: five configurations small enough
#: for a sub-second sweep (a write+read roundtrip, scheduled concurrent
#: writes under three policies, sharded admission), then the protocol's
#: full-size traffic shapes -- roundtrips over natural and reorganizing
#: schemas, concurrent scheduled writes under every policy and sharded
#: admission at 2 and 4 shards, SLO enforcement, and the fault paths
#: (transient message and disk faults; fault decisions are per-site PRNG
#: streams, so they must be order-blind too; a server crash).
MC_SCENARIOS = (
    "mc-roundtrip", "mc-sched-fifo", "mc-sched-sjf", "mc-sched-fair",
    "mc-sharded-2",
    "natural-roundtrip", "reorg-roundtrip",
    "sched-fifo", "sched-sjf", "sched-fair", "sched-slo",
    "sched-sharded-2", "sched-sharded-4", "slo-enforce",
    "faulty-roundtrip", "crash-recovery",
)


def _controlled(run: Callable[[], Outcome]) -> Outcome:
    """One controlled execution, with the engine's stop conditions
    mapped to outcomes."""
    try:
        return run()
    except SleepBlocked:
        return Outcome("sleep-blocked")
    except SimulationError as exc:
        kind = "deadlock" if str(exc).startswith("deadlock") else "error"
        return Outcome(kind, error=str(exc))


def orphans(runtime: PandaRuntime) -> int:
    """Messages still queued at quiescence, except in the mailboxes of
    servers that crashed in the run: what reaches a dead server (the
    supervisor's SHUTDOWN) waits there until the next run's mailbox
    purge drops it, by design."""
    dead = {runtime.server_rank(i) for i in runtime.crashed_servers}
    return sum(len(mb) for rank, mb in enumerate(runtime.network.mailboxes)
               if rank not in dead)


def mc_scenario(name: str, spec: Spec) -> MCScenario:
    """A catalogue spec as a model-checker scenario: build it, install
    the controller, run to quiescence, then count :func:`orphans`."""

    def run(ctl: ScheduleController) -> Outcome:
        built = build(spec)
        built.runtime.sim.enable_controller(ctl)

        def go() -> Outcome:
            fp = fingerprint(built, built.run())
            return Outcome("complete", fingerprint=fp,
                           orphans=orphans(built.runtime))

        return _controlled(go)

    return MCScenario(name, run)


def mc_scenarios() -> List[MCScenario]:
    """:data:`MC_SCENARIOS`, from the catalogue."""
    return [mc_scenario(name, CATALOG[name]) for name in MC_SCENARIOS]


def racy_fixture_scenario() -> MCScenario:
    """A known-racy fixture: two same-instant callbacks append to a
    shared list, and the scenario's result is the append order.  The
    callbacks declare the shared list via ``sim.mc_note``, so the
    checker sees the conflict, explores both orders, and must report a
    PL201 divergence naming this pair."""
    from repro.sim.engine import Simulator

    def run(ctl: ScheduleController) -> Outcome:
        sim = Simulator()
        sim.enable_controller(ctl)
        out: List[str] = []

        def writer_a(_arg) -> None:
            sim.mc_note("shared-list")
            out.append("a")

        def writer_b(_arg) -> None:
            sim.mc_note("shared-list")
            out.append("b")

        def spark(_arg) -> None:
            # queue both racing writers from one dispatch so they are
            # co-enabled at the same instant
            sim.schedule(0.5, writer_a, None)
            sim.schedule(0.5, writer_b, None)

        sim.schedule(0.0, spark, None)

        def go() -> Outcome:
            sim.run()
            return Outcome("complete", fingerprint=tuple(out))

        return _controlled(go)

    return MCScenario("racy-fixture", run)


def run_mc(
    scenarios: Optional[Sequence[MCScenario]] = None,
    max_schedules: int = 20000,
    reduce: bool = True,
    walks: int = 0,
) -> MCReport:
    """Explore every scenario and collect the report."""
    report = MCReport(budget=max_schedules)
    for scenario in scenarios if scenarios is not None else mc_scenarios():
        report.results.append(explore(
            scenario, max_schedules=max_schedules, reduce=reduce, walks=walks))
    return report
