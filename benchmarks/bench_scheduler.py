#!/usr/bin/env python
"""Inter-op scheduler benchmark: concurrent-op count x policy sweep.

Unlike ``bench_wallclock.py`` (host time), everything here is
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
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

RESULTS_PATH = REPO_ROOT / "BENCH_scheduler.json"

POLICIES = ("fifo", "sjf", "fair")
APP_COUNTS = (2, 4, 8)
SMOKE_APP_COUNTS = (2,)
SIZE_MB = 16


def run_point(policy, n_apps: int) -> dict:
    from repro.bench.experiments import shape_for_mb
    from repro.workloads.catalog import WriterGroupsParams, build

    built = build(WriterGroupsParams(policy=policy, n_apps=n_apps,
                                     shape=shape_for_mb(SIZE_MB)))
    result = built.run()
    stats = built.runtime.sched_stats
    if stats is None:  # unscheduled baseline: per-op elapsed only
        elapsed = [op.elapsed for op in result.ops]
        return {
            "makespan": round(max(elapsed), 6),
            "mean_turnaround": round(sum(elapsed) / len(elapsed), 6),
            "turnaround_spread": round(max(elapsed) - min(elapsed), 6),
        }
    done = stats.completed_ops()
    makespan = max(r.completed for r in done) - min(r.arrived for r in done)
    return {
        "makespan": round(makespan, 6),
        "mean_turnaround": round(stats.mean_turnaround(), 6),
        "turnaround_spread": round(stats.turnaround_spread(), 6),
        "queue_peak": stats.queue_peak,
        "in_flight_peak": stats.in_flight_peak,
    }


def run_sweep(smoke: bool) -> dict:
    out: dict = {}
    for n_apps in SMOKE_APP_COUNTS if smoke else APP_COUNTS:
        row: dict = {}
        for policy in POLICIES + (None,):
            name = policy or "baseline"
            row[name] = run_point(policy, n_apps)
            print(f"apps={n_apps} {name:9s} "
                  f"makespan {row[name]['makespan']:7.3f} s  "
                  f"spread {row[name]['turnaround_spread']:7.3f} s  "
                  f"mean {row[name]['mean_turnaround']:7.3f} s")
        out[str(n_apps)] = row
    return out


def check(fresh: dict, committed: dict) -> int:
    """Simulated results are deterministic: any drift from the committed
    sweep is a real behavioural change.  Also asserts the acceptance
    property: fair spread <= FIFO spread at the largest swept op count."""
    failures = []
    ref = committed.get("sweep", {})
    for n_apps, row in fresh.items():
        for name, point in row.items():
            want = ref.get(n_apps, {}).get(name)
            if want is None:
                failures.append(f"apps={n_apps} {name}: no committed point "
                                "(run --update)")
            elif want != point:
                failures.append(f"apps={n_apps} {name}: {point} != "
                                f"committed {want}")
    for n_apps, row in fresh.items():
        fair = row["fair"]["turnaround_spread"]
        fifo = row["fifo"]["turnaround_spread"]
        if fair > fifo:
            failures.append(
                f"apps={n_apps}: fair-share spread {fair:.3f} s exceeds "
                f"FIFO spread {fifo:.3f} s"
            )
    for f in failures:
        print("FAIL:", f, file=sys.stderr)
    if not failures:
        print(f"scheduler check OK ({len(fresh)} op-count row(s) "
              "bit-identical to committed; fair spread <= FIFO everywhere)")
    return 1 if failures else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--smoke", action="store_true",
                    help="run only the 2-app row")
    ap.add_argument("--check", action="store_true",
                    help="compare against committed BENCH_scheduler.json")
    ap.add_argument("--update", action="store_true",
                    help="rewrite BENCH_scheduler.json with this run")
    args = ap.parse_args(argv)

    fresh = run_sweep(smoke=args.smoke)

    committed = {}
    if RESULTS_PATH.exists():
        committed = json.loads(RESULTS_PATH.read_text())

    if args.check:
        return check(fresh, committed)

    if args.update:
        doc = {
            "description": (
                "Simulated concurrent-op scheduling sweep from "
                "benchmarks/bench_scheduler.py: N client groups each "
                f"writing {SIZE_MB} MB to 4 shared I/O nodes (8 compute "
                "nodes).  All values are simulated seconds and exactly "
                "reproducible; CI runs --smoke --check against them."
            ),
            "sweep": {**committed.get("sweep", {}), **fresh},
        }
        RESULTS_PATH.write_text(json.dumps(doc, indent=1) + "\n")
        print(f"wrote {RESULTS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
