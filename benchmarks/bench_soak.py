#!/usr/bin/env python
"""Soak + failover drill: sustained multi-tenant load, periodic crashes,
operational SLOs.

Everything is *simulated* time and therefore deterministic: ``--check``
demands an exact match against the committed ``BENCH_soak.json`` for
every point it ran, plus the drill's operational SLOs against the
committed full run:

- **integrity** -- zero byte mismatches over every (tenant, cycle)
  read-back, at 1 and 4 shards;
- **admission-wait regression** -- the post-drill cycle's mean write
  admission wait within 2x the crash-free baseline cycle's;
- **recovery time** -- every crash cycle's last write completes within
  the recovery budget of the crash;
- **SLO enforcement** -- on the contended comparison workload, the
  ``slo`` policy keeps the under-budget (small) tenants' p99 turnaround
  within budget while ``fifo`` violates it.

The full drill is one simulated hour per shard count: 200 tenants,
8 I/O nodes, 12 cycles of 300 s, one mid-storm crash in each of the 10
interior cycles (alternating shard masters and data nodes -- see
:mod:`repro.bench.soak`).

Usage::

    python benchmarks/bench_soak.py            # full drill, print
    python benchmarks/bench_soak.py --update   # rewrite BENCH_soak.json
    python benchmarks/bench_soak.py --smoke    # quick subset
    python benchmarks/bench_soak.py --smoke --check   # CI gate
    python benchmarks/bench_soak.py --smoke --check --out sweep.json
"""

from __future__ import annotations

import pathlib
import sys

import gate

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

FULL_TENANTS = 200
FULL_CYCLES = 12
FULL_SPAN = 300.0
SMOKE_TENANTS = 24
SMOKE_CYCLES = 4
SMOKE_SPAN = 60.0
N_IO = 8
SHARD_COUNTS = (1, 4)
#: post-drill mean admission wait must stay within this factor of the
#: crash-free baseline cycle's.
WAIT_REGRESSION_LIMIT = 2.0

DESCRIPTION = (
    "Simulated soak + failover drill from "
    "benchmarks/bench_soak.py: 200 single-rank tenants "
    "rewriting and reading back private 8 KB datasets over "
    "12 cycles of 300 s (one simulated hour) on 8 I/O "
    "nodes, with one mid-storm server crash in each of the "
    "10 interior cycles (alternating shard masters and "
    "data nodes), at 1 and 4 admission shards; plus the "
    "slo-vs-fifo enforcement comparison on a contended "
    "heavy/small workload.  All values are simulated "
    "seconds and exactly reproducible; CI runs "
    "--smoke --check against them."
)


def run_drill(n_shards: int, smoke: bool) -> dict:
    from repro.bench.soak import run_soak_drill

    n_tenants = SMOKE_TENANTS if smoke else FULL_TENANTS
    cycles = SMOKE_CYCLES if smoke else FULL_CYCLES
    span = SMOKE_SPAN if smoke else FULL_SPAN
    out = run_soak_drill(n_tenants=n_tenants, n_io=N_IO,
                         n_shards=n_shards, cycles=cycles, cycle_span=span)
    s = out["summary"]
    print(f"drill shards={n_shards}  tenants={n_tenants:3d}  "
          f"{s['sim_hours']:.3f} sim-h  {s['crashes']:2d} crash(es)  "
          f"integrity {s['integrity_checks'] - s['integrity_failures']}"
          f"/{s['integrity_checks']}  "
          f"wait x{s['wait_regression']:.2f}  "
          f"recovery max {s['recovery_max']:.3f} s")
    return out


def run_comparison() -> dict:
    from repro.bench.soak import run_slo_comparison

    out = run_slo_comparison()
    print(f"slo-vs-fifo: budget {out['budget']:.1f} s  "
          f"slo small p99 {out['slo']['small_p99']:.3f} s "
          f"({out['slo']['demoted']} demoted, {out['slo']['shed']} shed)  "
          f"fifo small p99 {out['fifo']['small_p99']:.3f} s")
    return out


def sweep(smoke: bool):
    key = "smoke_drills" if smoke else "drills"
    for k in SHARD_COUNTS:
        yield (key, str(k)), run_drill(k, smoke)
    yield ("comparison",), run_comparison()


def properties(committed: dict, fresh: dict) -> list:
    """The operational SLOs, against the committed full drill."""
    from repro.bench.soak import RECOVERY_BUDGET

    failures = []
    drills = committed.get("drills", {})
    if not drills:
        failures.append("no committed full drills (run --update "
                        "without --smoke)")
    for shards, out in drills.items():
        s = out["summary"]
        where = f"drills/{shards}"
        if s["integrity_failures"]:
            failures.append(f"{where}: {s['integrity_failures']} byte "
                            "mismatch(es) on read-back")
        if s["wait_regression"] > WAIT_REGRESSION_LIMIT:
            failures.append(
                f"{where}: post-drill admission wait regressed "
                f"x{s['wait_regression']} > x{WAIT_REGRESSION_LIMIT}")
        if s["recovery_max"] > RECOVERY_BUDGET:
            failures.append(f"{where}: recovery took {s['recovery_max']} s "
                            f"> budget {RECOVERY_BUDGET} s")
        if s["sim_hours"] < 1.0 or s["crashes"] < 10:
            failures.append(f"{where}: drill too small "
                            f"({s['sim_hours']} sim-h, {s['crashes']} "
                            "crash(es)); the SLOs need a real soak")
    cmp_ = committed.get("comparison")
    if cmp_ is None:
        failures.append("no committed comparison (run --update)")
    else:
        budget = cmp_["budget"]
        if cmp_["slo"]["small_p99"] > budget:
            failures.append(
                f"comparison: slo policy broke the small tenants' budget "
                f"({cmp_['slo']['small_p99']} s > {budget} s)")
        if cmp_["fifo"]["small_p99"] <= budget:
            failures.append(
                "comparison: fifo held the budget "
                f"({cmp_['fifo']['small_p99']} s <= {budget} s) -- the "
                "workload no longer demonstrates enforcement")
    return failures


if __name__ == "__main__":
    sys.exit(gate.main(
        results=REPO_ROOT / "BENCH_soak.json", doc=__doc__,
        description=DESCRIPTION,
        smoke_help=f"run only the {SMOKE_TENANTS}-tenant drills",
        sweep=sweep, properties=properties))
