"""Re-drive a runtime from a :class:`WorkloadTrace` and check the
outcome bit-exactly.

The replayer rebuilds the runtime from the trace's config alone (no
captured Python objects survive), then replays each recorded run:

- fail-stop crashes are re-scheduled at their recorded *absolute*
  instants through :meth:`Simulator.schedule_at`, so they land on the
  identical float regardless of where the replayed run's clock started.
  Every run's plan passes :meth:`PandaRuntime.check_crash_plan` before
  the first run starts, so a plan the runtime cannot carry out is
  refused before any simulated time passes;
- each rank replays its event stream in order: binds re-register the
  recorded array specs; an op waits until the recorded arrival instant
  (:meth:`Simulator.wake_at` -- exact, no ``now + delay`` rounding),
  restores any recorded write payloads into the bound buffers, and
  issues the same collective with the same priority;
- an op recorded as shed must raise the same collective
  :class:`OpRejected` (on every rank of its group), and an op recorded
  as completed must complete -- any parity mismatch raises
  :class:`ReplayDivergence` naming the rank, dataset and instant.

After the last run the replayed fingerprints (per-op elapsed float-hex
+ admission schedule + stored-bytes sha256, the same strings the race
detector pins) are compared against the trace's ``expect`` section.

``policy_override`` replays the same stimuli under a different
scheduling policy (the differential-replay experiment: policy changes
scheduling, never data).  Arrival pads become best-effort floors then
-- the new schedule may hold an op past its recorded instant -- and
fingerprint comparison is skipped; rejection parity is still enforced.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional

import numpy as np

from repro.core.protocol import OpRejected
from repro.core.runtime import PandaRuntime, RunResult
from repro.replay.fingerprint import digest_stored, run_strings
from repro.replay.trace import WorkloadTrace

__all__ = ["ReplayDivergence", "ReplayOutcome", "build_runtime", "replay",
           "diff_lines"]


class ReplayDivergence(RuntimeError):
    """The replayed run departed from the recorded one mid-flight."""


@dataclass
class ReplayOutcome:
    """What one replay produced, against what the trace expected."""

    trace: WorkloadTrace
    runtime: PandaRuntime
    results: List[RunResult]
    #: per-run fingerprints of the replayed execution.
    fingerprints: List[List[str]]
    stored: str
    #: per-run scheduler stats objects (None on unscheduled runs).
    run_stats: List[Optional[Any]]
    #: fingerprint verdict: True/False when checked, None when a
    #: policy override made the comparison meaningless.
    ok: Optional[bool]
    mismatches: List[str] = field(default_factory=list)
    #: re-captured trace (``replay(recapture=True)`` only).
    recaptured: Optional[WorkloadTrace] = None


def build_runtime(trace: WorkloadTrace,
                  policy_override: Optional[str] = None,
                  slo_override: Optional[Any] = None) -> PandaRuntime:
    """A fresh runtime matching the trace's captured configuration.

    ``slo_override`` (an :class:`repro.obs.slo.SLOBudget`) installs a
    latency budget the capture did not have -- e.g. replaying a
    fifo-captured storm under ``policy_override="slo"`` to ask "what
    would enforcement have done to this exact workload?"."""
    config = trace.config()
    if slo_override is not None and policy_override != "slo":
        raise ValueError("slo_override requires policy_override='slo'")
    if policy_override is not None:
        if config.scheduler is None:
            raise ValueError(
                "policy override needs a scheduled trace; this one was "
                "captured without a scheduler"
            )
        sched = config.scheduler
        slo = slo_override
        if slo is None and policy_override == "slo":
            slo = sched.slo
        config = replace(
            config, scheduler=replace(sched, policy=policy_override, slo=slo)
        )
    rt_doc = trace.doc["runtime"]
    return PandaRuntime(
        n_compute=rt_doc["n_compute"],
        n_io=rt_doc["n_io"],
        spec=trace.machine(),
        config=config,
        real_payloads=rt_doc["real_payloads"],
    )


def _rank_events(trace: WorkloadTrace, run_doc: Dict[str, Any],
                 strict: bool, violations: List[str]):
    """The per-rank replay driver (an SPMD app generator function).

    Parity violations are *collected*, not raised: an exception inside
    one rank's app strands its peers mid-collective -- under fault
    injection their retry loops then keep the event queue alive forever
    -- so the replayed system always runs to completion and
    :func:`replay` raises afterwards."""

    def app(ctx):
        for ev in run_doc["events"].get(str(ctx.rank), []):
            if ev["type"] == "bind":
                ctx.bind(trace.array_spec(ev["array"]))
                continue
            t = float.fromhex(ev["t"])
            now = ctx.sim.now
            if t > now:
                yield ctx.sim.wake_at(t)
            elif t < now and strict:
                violations.append(
                    f"rank {ctx.rank}: op on {ev['dataset']!r} recorded "
                    f"at {t!r} but replay reached it at {now!r}"
                )
            specs = tuple(trace.array_spec(k) for k in ev["arrays"])
            for name, sha in ev.get("payload", {}).items():
                buf = ctx.panda.local(name)
                buf[...] = np.frombuffer(
                    trace.payload(sha), dtype=buf.dtype).reshape(buf.shape)
            try:
                yield from ctx.panda.collective(
                    ev["kind"], specs, ev["dataset"],
                    priority=ev["priority"],
                )
            except OpRejected:
                if not ev["rejected"]:
                    violations.append(
                        f"rank {ctx.rank}: op on {ev['dataset']!r} at "
                        f"{ev['t']} was shed in replay but completed in "
                        "the recording"
                    )
            else:
                if ev["rejected"]:
                    violations.append(
                        f"rank {ctx.rank}: op on {ev['dataset']!r} at "
                        f"{ev['t']} completed in replay but was shed in "
                        "the recording"
                    )

    return app


def _run_crashes(run_doc: Dict[str, Any]) -> List[tuple]:
    return [(idx, float.fromhex(t)) for idx, t in run_doc["crashes"]]


def replay(trace: WorkloadTrace, policy_override: Optional[str] = None,
           slo_override: Optional[Any] = None,
           recapture: bool = False) -> ReplayOutcome:
    """Replay every recorded run on a fresh runtime; see module doc."""
    strict = policy_override is None
    rt = build_runtime(trace, policy_override, slo_override)
    recorder = None
    if recapture:
        from repro.replay.capture import TraceRecorder

        recorder = TraceRecorder(rt, name=trace.name, meta=trace.meta)
    results: List[RunResult] = []
    fingerprints: List[List[str]] = []
    run_stats: List[Optional[Any]] = []
    plans = [_run_crashes(run_doc) for run_doc in trace.doc["runs"]]
    for crashes in plans:
        if crashes and rt.injector is None:
            raise ReplayDivergence(
                "trace records crashes but its config has no fault "
                "spec to replay them under"
            )
        rt.check_crash_plan(crashes)
    for run_doc, crashes in zip(trace.doc["runs"], plans):
        rt._replay_crashes_abs = crashes
        violations: List[str] = []
        try:
            app = _rank_events(trace, run_doc, strict, violations)
            assignments = [(app, tuple(g)) for g in run_doc["groups"]]
            result = rt.run_partitioned(assignments)
        finally:
            rt._replay_crashes_abs = None
        if violations:
            shown = "; ".join(violations[:5])
            more = len(violations) - 5
            raise ReplayDivergence(
                shown + (f" (+{more} more)" if more > 0 else "")
            )
        results.append(result)
        run_stats.append(rt.sched_stats)
        fingerprints.append(run_strings(result, rt.sched_stats))
    stored = digest_stored(rt)
    ok: Optional[bool] = None
    mismatches: List[str] = []
    if strict:
        expect = trace.expect
        for k, (got, want) in enumerate(zip(fingerprints, expect["runs"])):
            if got != want:
                pairs = [(g, w) for g, w in zip(got, want) if g != w]
                pairs += [("<missing>", w) for w in want[len(got):]]
                pairs += [(g, "<extra>") for g in got[len(want):]]
                for g, w in pairs:
                    mismatches.append(f"run {k}: {g!r} != recorded {w!r}")
        if len(fingerprints) != len(expect["runs"]):
            mismatches.append(
                f"{len(fingerprints)} run(s) replayed, "
                f"{len(expect['runs'])} recorded"
            )
        if stored != expect["stored"]:
            mismatches.append(
                f"stored bytes {stored} != recorded {expect['stored']}"
            )
        ok = not mismatches
    return ReplayOutcome(
        trace=trace, runtime=rt, results=results, fingerprints=fingerprints,
        stored=stored, run_stats=run_stats, ok=ok, mismatches=mismatches,
        recaptured=recorder.trace() if recorder is not None else None,
    )


def diff_lines(outcome: ReplayOutcome, limit: int = 20) -> List[str]:
    """Human-readable replay-vs-recording report."""
    t = outcome.trace
    lines = [
        f"trace {t.name!r}: {len(t.doc['runs'])} run(s), "
        f"{t.n_events} event(s), {len(t.doc['payloads'])} payload(s)"
    ]
    if outcome.ok:
        total = sum(len(f) for f in outcome.fingerprints)
        lines.append(
            f"replay matches recording: {total} fingerprint string(s) + "
            f"stored bytes {outcome.stored[:16]}... all equal"
        )
    else:
        shown = outcome.mismatches[:limit]
        lines.append(f"REPLAY DIVERGED: {len(outcome.mismatches)} mismatch(es)")
        lines.extend(f"  {m}" for m in shown)
        if len(outcome.mismatches) > limit:
            lines.append(f"  ... {len(outcome.mismatches) - limit} more")
    return lines
