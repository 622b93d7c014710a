#!/usr/bin/env python
"""Checkpoint-restart storm, compared across policies by differential
replay.

The contended herd (simultaneous checkpoint arrivals, mixed sizes, a
narrow admission pipe) is captured **once** under fifo as a replay
trace; sjf, fair and slo then re-drive the identical stimuli and only
the schedule may move.  Everything is simulated time and therefore
deterministic: ``--check`` demands an exact match against the
committed ``BENCH_storm.json`` for every point it ran, plus the
differential-replay invariants against the committed full run:

- **bit-exact replay** -- the fifo capture replays with identical
  fingerprints and stored bytes;
- **data invariance** -- every policy's stored-bytes digest equals the
  capture's (policy changes scheduling, never data);
- **reordering** -- sjf (size-aware) and slo (budget demotions, zero
  sheds) each produce a turnaround spread different from fifo's, while
  fair's DRR degenerates to arrival order on this herd (one queued op
  per tenant) and matches fifo exactly.

Usage::

    python benchmarks/bench_storm.py            # full herd, print
    python benchmarks/bench_storm.py --update   # rewrite BENCH_storm.json
    python benchmarks/bench_storm.py --smoke    # quick subset
    python benchmarks/bench_storm.py --smoke --check   # CI gate
    python benchmarks/bench_storm.py --smoke --check --out sweep.json
"""

from __future__ import annotations

import pathlib
import sys

import gate

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

DESCRIPTION = (
    "Differential-replay storm comparison from "
    "benchmarks/bench_storm.py: an 8-tenant checkpoint herd "
    "(simultaneous arrivals, size classes 1/2/8 on 16384 "
    "float64 elements, 2 I/O nodes, max_in_flight 2, 8 "
    "rounds) captured once under fifo as a replay trace, "
    "then re-driven under sjf, fair and slo from the trace "
    "alone.  Stored bytes are byte-identical across every "
    "policy; sjf and slo produce different turnaround "
    "spreads, fair degenerates to fifo on this herd.  The "
    "slo point uses a budget derived from the capture "
    "(median per-tenant p99) with shedding disabled.  All "
    "values are simulated seconds and exactly reproducible; "
    "CI runs --smoke --check against them."
)


def run_herd(smoke: bool) -> dict:
    from repro.bench.storm import (CONTENDED_STORM, FULL_STORM,
                                   run_storm_comparison)

    params = CONTENDED_STORM if smoke else FULL_STORM
    out = run_storm_comparison(params)
    print(f"storm tenants={params.n_tenants} rounds={params.rounds} "
          f"elements={params.elements} events={out['n_events']}  "
          f"replay {'bit-exact' if out['replay_bit_exact'] else 'DIVERGED'}  "
          f"slo budget {out['budget_p99']:.4f} s")
    for policy, pt in out["policies"].items():
        print(f"  {policy:<4s} spread {pt['turnaround_spread']:.6f} s  "
              f"mean {pt['turnaround_mean']:.6f} s  "
              f"makespan {pt['makespan']:.3f} s  "
              f"stored {'=' if pt['stored_equal'] else 'DIVERGED'}  "
              f"demoted {pt['demoted']}  shed {pt['shed']}")
    return out


def sweep(smoke: bool):
    yield ("smoke_herd" if smoke else "herd",), run_herd(smoke)


def _herd_failures(doc: dict, where: str) -> list:
    """The differential-replay invariants on one herd point."""
    failures = []
    if not doc.get("replay_bit_exact"):
        failures.append(f"{where}: fifo capture did not replay bit-exactly")
    policies = doc.get("policies", {})
    fifo = policies.get("fifo")
    if fifo is None:
        return failures + [f"{where}: no fifo point"]
    for policy, pt in policies.items():
        if not pt["stored_equal"]:
            failures.append(f"{where}: {policy} replay changed stored "
                            "bytes -- policy must never change data")
        if pt["shed"]:
            failures.append(f"{where}: {policy} shed {pt['shed']} op(s); "
                            "the comparison must be shed-free")
    for policy in ("sjf", "slo"):
        if policies[policy]["turnaround_spread"] == \
                fifo["turnaround_spread"]:
            failures.append(
                f"{where}: {policy} spread equals fifo's -- the policy "
                "no longer reorders the herd")
    if policies["fair"]["turnaround_spread"] != fifo["turnaround_spread"]:
        failures.append(
            f"{where}: fair diverged from fifo -- DRR no longer "
            "degenerates to arrival order on this herd (intentional? "
            "rerun --update and amend the bench doc)")
    if policies["slo"]["demoted"] == 0:
        failures.append(f"{where}: slo demoted nothing -- the derived "
                        "budget no longer splits the herd")
    return failures


def properties(committed: dict, fresh: dict) -> list:
    """The invariants on the committed full herd and a fresh smoke herd."""
    herd = committed.get("herd")
    failures = (["no committed full herd (run --update without --smoke)"]
                if herd is None else _herd_failures(herd, "herd"))
    if "smoke_herd" in fresh:
        failures += _herd_failures(fresh["smoke_herd"], "smoke_herd")
    return failures


if __name__ == "__main__":
    sys.exit(gate.main(
        results=REPO_ROOT / "BENCH_storm.json", doc=__doc__,
        description=DESCRIPTION, smoke_help="run only the small herd",
        sweep=sweep, properties=properties))
