"""Schedule-perturbation race detector (the dynamic half of panda-lint).

Static lints cannot see every order-dependence, so this module attacks
the invariant directly: the simulator's dispatch order among
*same-timestamp, causally-unordered* events is an implementation
detail, and no simulated result may depend on it.  A
:class:`Perturber`, installed as the engine's dispatch controller
(:meth:`repro.sim.engine.Simulator.enable_controller`), picks uniformly
at random -- from a seeded PRNG -- among every queued entry carrying
the minimal timestamp.  Causality is preserved for free: an event only
becomes a candidate after the event that scheduled it has run, and
time never goes backwards.

A *scenario* builds a fresh simulation without running it; the
detector installs a :class:`DispatchLog` (or, for a perturbed run, a
:class:`Perturber`), runs it, and records a :class:`ScenarioRun`: an exact
fingerprint (op timings as float hex, bytes moved, the admission
schedule, a digest of the stored payload bytes) plus the dispatch log.
Each scenario runs once unperturbed and once per seed, and any
fingerprint mismatch is a latent race; the report pinpoints the first
pair of dispatch decisions where the perturbed schedule departed from
the baseline, which is where to start reading.

The representative set (:data:`RACE_SCENARIOS`, entries of
:data:`repro.workloads.catalog.CATALOG`) covers the protocol's distinct
traffic shapes: write and read, natural and reorganizing disk schemas,
concurrent scheduled writes, SLO enforcement, and the fault path
(transient drops force the reliable request/reply exchanges; fault
decisions are per-site PRNG streams, so they are order-blind by
construction and must survive perturbation too).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.core.runtime import RunResult
from repro.replay.fingerprint import digest_stored, run_strings
from repro.sim.engine import Simulator
from repro.workloads.catalog import CATALOG, Built, build

__all__ = [
    "DispatchLog",
    "Divergence",
    "FAULT_SCENARIOS",
    "RACE_SCENARIOS",
    "Perturber",
    "RaceReport",
    "ScenarioRun",
    "Scenario",
    "detect",
    "fingerprint",
    "panda_scenarios",
]


class DispatchLog:
    """Dispatch controller that keeps the engine's normal (time, seq)
    order and records ``(time, label)`` per dispatched event."""

    def __init__(self) -> None:
        self.log: List[Tuple[float, str]] = []

    def choose(self, t: float, frontier: List[Tuple[int, str]]) -> int:
        return min(range(len(frontier)), key=lambda i: frontier[i][0])

    def begin(self, t: float, seq: int, label: str) -> None:
        self.log.append((t, label))

    def end(self, pre_seq: int, post_seq: int) -> None:
        pass

    def note(self, obj: Any) -> None:
        pass


class Perturber(DispatchLog):
    """A :class:`DispatchLog` that dispatches a uniformly random entry
    of each multi-entry frontier, from a PRNG seeded by ``seed``."""

    def __init__(self, seed: int) -> None:
        super().__init__()
        self._rng = random.Random(f"perturb:{seed}")

    def choose(self, t: float, frontier: List[Tuple[int, str]]) -> int:
        n = len(frontier)
        return self._rng.randrange(n) if n > 1 else 0


@dataclass(frozen=True)
class ScenarioRun:
    """One execution of a scenario: exact results + schedule."""

    fingerprint: Tuple[str, ...]
    log: Tuple[Tuple[float, str], ...]


@dataclass(frozen=True)
class Scenario:
    """A named, repeatable simulation.

    ``setup()`` must build everything fresh (simulator, runtime,
    arrays) without running it, and return the simulator plus a
    ``finish()`` that runs it and returns the exact fingerprint.  The
    detector instruments the simulator in between.
    """

    name: str
    setup: Callable[[], Tuple[Simulator, Callable[[], Tuple[str, ...]]]]


@dataclass(frozen=True)
class Divergence:
    """A detected race: scenario + seed + where schedules first split."""

    scenario: str
    seed: int
    #: index into the dispatch logs of the first differing entry.
    event_index: int
    baseline_event: Optional[Tuple[float, str]]
    perturbed_event: Optional[Tuple[float, str]]
    baseline_fingerprint: Tuple[str, ...]
    perturbed_fingerprint: Tuple[str, ...]

    def describe(self) -> str:
        def fmt(e: Optional[Tuple[float, str]]) -> str:
            return f"t={e[0]:.9f} {e[1]}" if e is not None else "<log ended>"

        mism = [
            f"    {b!r} != {p!r}"
            for b, p in zip(self.baseline_fingerprint,
                            self.perturbed_fingerprint)
            if b != p
        ]
        return (
            f"RACE {self.scenario} (seed {self.seed}): results depend on "
            f"dispatch order\n"
            f"  first diverging event pair (index {self.event_index}):\n"
            f"    baseline : {fmt(self.baseline_event)}\n"
            f"    perturbed: {fmt(self.perturbed_event)}\n"
            f"  fingerprint mismatches:\n" + "\n".join(mism)
        )


@dataclass
class RaceReport:
    """Outcome of one detector sweep."""

    scenarios: List[str]
    seeds: Tuple[int, ...]
    runs: int = 0
    divergences: List[Divergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def summary(self) -> str:
        head = (
            f"race detector: {len(self.scenarios)} scenario(s) x "
            f"{len(self.seeds)} seed(s), {self.runs} perturbed run(s)"
        )
        if self.ok:
            return head + ": all schedules agree (no order-dependence)"
        body = "\n".join(d.describe() for d in self.divergences)
        return f"{head}: {len(self.divergences)} divergence(s)\n{body}"


def _first_difference(
    a: Sequence[Tuple[float, str]], b: Sequence[Tuple[float, str]]
) -> Tuple[int, Optional[Tuple[float, str]], Optional[Tuple[float, str]]]:
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return i, x, y
    n = min(len(a), len(b))
    return (
        n,
        a[n] if n < len(a) else None,
        b[n] if n < len(b) else None,
    )


def detect(
    scenarios: Sequence[Scenario],
    seeds: Sequence[int] = (1, 2, 3, 4, 5),
    stop_on_first: bool = False,
) -> RaceReport:
    """Run every scenario once in the deterministic baseline order and
    once per perturbation seed, and compare each perturbed fingerprint
    against the baseline's."""

    def _execute(scenario: Scenario,
                 perturb_seed: Optional[int]) -> ScenarioRun:
        sim, finish = scenario.setup()
        ctl = DispatchLog() if perturb_seed is None else Perturber(perturb_seed)
        sim.enable_controller(ctl)
        return ScenarioRun(finish(), tuple(ctl.log))

    report = RaceReport([s.name for s in scenarios], tuple(seeds))
    for scenario in scenarios:
        baseline = _execute(scenario, None)
        for seed in seeds:
            perturbed = _execute(scenario, seed)
            report.runs += 1
            if perturbed.fingerprint == baseline.fingerprint:
                continue
            idx, be, pe = _first_difference(baseline.log, perturbed.log)
            report.divergences.append(Divergence(
                scenario.name, seed, idx, be, pe,
                baseline.fingerprint, perturbed.fingerprint,
            ))
            if stop_on_first:
                return report
    return report


# -- the representative Panda op set ------------------------------------------

#: the sweep, in report order: read+write roundtrips over natural and
#: reorganizing schemas, concurrent scheduled writes under every policy
#: and under sharded admission, SLO enforcement, then the fault paths.
RACE_SCENARIOS = (
    "natural-roundtrip", "reorg-roundtrip",
    "sched-fifo", "sched-sjf", "sched-fair", "sched-slo",
    "sched-sharded-2", "sched-sharded-4", "slo-enforce",
)
FAULT_SCENARIOS = ("faulty-roundtrip", "crash-recovery")


def fingerprint(built: Built, result: RunResult) -> Tuple[str, ...]:
    """The exact result of one run of a catalogue scenario: op timings
    and the admission schedule (:func:`run_strings`), the stored-bytes
    digest, each client's observed rejection count, and the SLO
    enforcement totals."""
    rt = built.runtime
    trackers = rt.slo_trackers.values()
    return (
        *run_strings(result, rt.sched_stats),
        f"stored:{digest_stored(rt)}",
        *(f"rejected[{i}]:{n}" for i, n in sorted(built.rejections.items())),
        f"demoted:{sum(t.total_demoted for t in trackers)}",
        f"shed:{sum(t.total_shed for t in trackers)}",
    )


def _catalog_scenario(name: str) -> Scenario:
    """Catalogue entry ``name`` as a race scenario."""
    spec = CATALOG[name]

    def setup() -> Tuple[Simulator, Callable[[], Tuple[str, ...]]]:
        built = build(spec)
        return built.runtime.sim, lambda: fingerprint(built, built.run())

    return Scenario(name, setup)


def panda_scenarios(with_faults: bool = True) -> List[Scenario]:
    """The representative op set (optionally without the fault paths)."""
    names = RACE_SCENARIOS + (FAULT_SCENARIOS if with_faults else ())
    return [_catalog_scenario(name) for name in names]
