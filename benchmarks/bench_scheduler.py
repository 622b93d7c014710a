#!/usr/bin/env python
"""Inter-op scheduler benchmark: concurrent-op count x policy sweep.

Unlike ``perf/`` (host time), everything here is
*simulated* seconds and therefore deterministic: ``--check`` demands an
exact match against the committed ``BENCH_scheduler.json`` plus the
headline property the fair-share policy exists for -- at 8 concurrent
ops its turnaround spread must not exceed FIFO's.

Each point runs N independent client groups (8 compute nodes split
evenly), each collectively writing its own 16 MB array to 4 shared I/O
nodes, under one scheduling policy; ``baseline`` is the paper's
unscheduled head-of-line loop for comparison.

Usage::

    python benchmarks/bench_scheduler.py            # full sweep, print
    python benchmarks/bench_scheduler.py --update   # rewrite BENCH_scheduler.json
    python benchmarks/bench_scheduler.py --smoke    # quick subset (2 apps)
    python benchmarks/bench_scheduler.py --smoke --check   # CI gate
    python benchmarks/bench_scheduler.py --smoke --check --out sweep.json
"""

from __future__ import annotations

import pathlib
import sys

import gate

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

POLICIES = ("fifo", "sjf", "fair")
APP_COUNTS = (2, 4, 8)
SMOKE_APP_COUNTS = (2,)
SIZE_MB = 16

DESCRIPTION = (
    "Simulated concurrent-op scheduling sweep from "
    "benchmarks/bench_scheduler.py: N client groups each "
    f"writing {SIZE_MB} MB to 4 shared I/O nodes (8 compute "
    "nodes).  All values are simulated seconds and exactly "
    "reproducible; CI runs --smoke --check against them."
)


def run_point(policy, n_apps: int) -> dict:
    from repro.bench.experiments import shape_for_mb
    from repro.workloads.catalog import WriterGroupsParams, build

    built = build(WriterGroupsParams(policy=policy, n_apps=n_apps,
                                     shape=shape_for_mb(SIZE_MB)))
    result = built.run()
    stats = built.runtime.sched_stats
    if stats is None:  # unscheduled baseline: per-op elapsed only
        elapsed = [op.elapsed for op in result.ops]
        point = {
            "makespan": round(max(elapsed), 6),
            "mean_turnaround": round(sum(elapsed) / len(elapsed), 6),
            "turnaround_spread": round(max(elapsed) - min(elapsed), 6),
        }
    else:
        point = {
            "makespan": round(stats.makespan(), 6),
            "mean_turnaround": round(stats.mean_turnaround(), 6),
            "turnaround_spread": round(stats.turnaround_spread(), 6),
            "queue_peak": stats.queue_peak,
            "in_flight_peak": stats.in_flight_peak,
        }
    print(f"apps={n_apps} {policy or 'baseline':9s} "
          f"makespan {point['makespan']:7.3f} s  "
          f"spread {point['turnaround_spread']:7.3f} s  "
          f"mean {point['mean_turnaround']:7.3f} s")
    return point


def sweep(smoke: bool):
    for n_apps in SMOKE_APP_COUNTS if smoke else APP_COUNTS:
        for policy in POLICIES + (None,):
            yield (("sweep", str(n_apps), policy or "baseline"),
                   run_point(policy, n_apps))


def properties(committed: dict, fresh: dict) -> list:
    """Fair-share spread <= FIFO spread at every swept op count."""
    failures = []
    for n_apps, row in fresh["sweep"].items():
        fair = row["fair"]["turnaround_spread"]
        fifo = row["fifo"]["turnaround_spread"]
        if fair > fifo:
            failures.append(
                f"apps={n_apps}: fair-share spread {fair:.3f} s exceeds "
                f"FIFO spread {fifo:.3f} s"
            )
    return failures


if __name__ == "__main__":
    sys.exit(gate.main(
        results=REPO_ROOT / "BENCH_scheduler.json", doc=__doc__,
        description=DESCRIPTION, smoke_help="run only the 2-app row",
        sweep=sweep, properties=properties))
