"""Command-line interface: regenerate the paper's results without pytest.

Usage::

    python -m repro figures fig3 fig4        # paper-style figure tables
    python -m repro figures --sizes 16,64    # subset of the size sweep
    python -m repro table1                   # the machine-measurement table
    python -m repro predict --kind write --compute 16 --io 4 \\
        --size-mb 64 --schema traditional    # analytic cost model
    python -m repro compare --size-mb 16     # strategy comparison
    python -m repro trace --figure fig3 --size-mb 16 \\
        --out panda-trace.json               # Perfetto trace + verdict
    python -m repro lint                     # panda-lint static analysis
    python -m repro mc                       # schedule search + 5 walks
    python -m repro sched --apps 4 --policy all \\
                                             # concurrent-op scheduler demo

``figures`` and ``table1`` print the same tables as
``benchmarks/bench_paper.py``, from the same measurement definitions.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import List, Optional

from repro.bench import (
    EXPERIMENTS,
    format_figure,
    run_figure,
    run_panda_point,
    run_traced_point,
    shape_for_mb,
)
from repro.bench.harness import (
    STRATEGIES,
    build_array,
    compare_strategies,
    measure_table1,
)
from repro.bench.report import format_rows, format_table1
from repro.core.costmodel import predict_arrays
from repro.machine import MB, sp2

__all__ = ["main"]


def _cmd_figures(args: argparse.Namespace) -> int:
    names = args.figure or sorted(EXPERIMENTS)
    for name in names:
        if name not in EXPERIMENTS:
            print(f"unknown figure {name!r}; known: {sorted(EXPERIMENTS)}",
                  file=sys.stderr)
            return 2
    for name in names:
        exp = EXPERIMENTS[name]
        if args.sizes:
            exp = replace(exp, sizes_mb=tuple(args.sizes))
        grid = run_figure(exp)
        print(format_figure(name, exp.title, grid))
        print()
    return 0


def cmd_table1(_args: argparse.Namespace) -> int:
    print(format_table1(measure_table1()))
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    shape = shape_for_mb(args.size_mb)
    arr = build_array(shape, args.compute, args.io, args.schema)
    spec = sp2(fast_disk=args.fast_disk)
    pred = predict_arrays([arr], args.kind, args.compute, args.io, spec)
    print(f"predicted {args.kind} of {args.size_mb} MB "
          f"({args.schema} disk schema) on {args.compute} CN / "
          f"{args.io} ION{' (fast disk)' if args.fast_disk else ''}:")
    rows = [
        ["elapsed", f"{pred.elapsed:.3f} s"],
        ["aggregate", f"{args.size_mb * MB / pred.elapsed / MB:.2f} MB/s"],
        ["startup", f"{pred.startup * 1000:.1f} ms"],
        ["slowest-server disk", f"{pred.disk_time:.3f} s"],
        ["slowest-server network", f"{pred.network_time:.3f} s"],
        ["slowest-server copy", f"{pred.copy_time:.3f} s"],
        ["bottleneck", pred.bottleneck],
    ]
    print(format_rows(rows, ["quantity", "value"]))
    if args.verify:
        sim = run_panda_point(args.kind, args.compute, args.io, shape,
                              disk_schema=args.schema,
                              fast_disk=args.fast_disk).elapsed
        err = (pred.elapsed - sim) / sim * 100
        print(f"\nsimulated: {sim:.3f} s (prediction error {err:+.1f}%)")
    return 0


#: ``repro compare``'s row labels, one per strategy of the comparison
_STRATEGY_LABELS = {
    "panda-natural": "Panda (natural)",
    "panda-traditional": "Panda (traditional order)",
    "two-phase": "two-phase",
    "traditional-caching": "traditional caching",
    "naive-striping": "naive striping",
}


def cmd_compare(args: argparse.Namespace) -> int:
    n_cn, n_io = args.compute, args.io
    thr = compare_strategies(n_cn, n_io, shape_for_mb(args.size_mb),
                             read=False)
    rows = [[_STRATEGY_LABELS[name], f"{thr[name]['write'] / MB:.2f}"]
            for name in STRATEGIES]
    print(f"strategy comparison: {args.size_mb} MB write, "
          f"{n_cn} CN / {n_io} ION\n")
    print(format_rows(rows, ["strategy", "MB/s"]))
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import observe_trace, write_chrome_trace
    from repro.obs.metrics import MetricsRegistry

    exp = EXPERIMENTS.get(args.figure)
    if exp is None:
        print(f"unknown figure {args.figure!r}; known: {sorted(EXPERIMENTS)}",
              file=sys.stderr)
        return 2
    n_io = args.io if args.io is not None else exp.ionodes[0]
    if n_io not in exp.ionodes:
        print(f"{args.figure} uses {exp.ionodes} I/O nodes, not {n_io}",
              file=sys.stderr)
        return 2
    registry = MetricsRegistry()
    result, report = run_traced_point(
        exp.kind, exp.n_compute, n_io, exp.shape(args.size_mb),
        disk_schema=exp.disk_schema, fast_disk=exp.fast_disk,
        registry=registry,
    )
    print(f"traced {exp.kind} of {args.size_mb} MB "
          f"({args.figure}: {exp.title}; {exp.n_compute} CN / {n_io} ION)\n")
    print(result.describe())
    print()
    print(report.render())
    t_end = result.runtime.sim.now
    write_chrome_trace(result.trace, args.out,
                       t0=t_end - result.elapsed, t_end=t_end)
    print(f"\nwrote {args.out} "
          f"(load at https://ui.perfetto.dev or chrome://tracing)")
    if args.metrics:
        observe_trace(result.trace, registry)
        with open(args.metrics, "w") as f:
            f.write(registry.render())
            if result.runtime.slo_trackers:
                from repro.obs.slo import render_slo

                f.write(render_slo(result.runtime.slo_trackers))
        print(f"wrote {args.metrics}")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    """panda-lint: the repo-specific determinism + protocol checks.
    Exit 0 only when every finding is fixed or allowlisted (with a
    reason) -- CI runs this as a blocking job."""
    import json
    from pathlib import Path

    from repro.analysis import run_lint

    root = Path(args.root).resolve()
    if not (root / "pyproject.toml").is_file():
        print(f"{root} does not look like the repo root "
              "(no pyproject.toml); pass --root", file=sys.stderr)
        return 2
    result = run_lint(root)
    if args.format == "json":
        print(json.dumps(result.as_json(), indent=1))
    else:
        for line in result.lines():
            print(line)
    return 0 if result.ok else 1


def _unknown_scenario(wanted: List[str], known: List[str]) -> bool:
    """Name lookup for ``mc --scenario`` and ``replay record``."""
    unknown = sorted(set(wanted) - set(known))
    if unknown:
        print(f"unknown scenario(s): {', '.join(unknown)}; "
              f"known: {', '.join(sorted(known))}", file=sys.stderr)
    return bool(unknown)


def cmd_mc(args: argparse.Namespace) -> int:
    """panda-mc: enumerate every non-equivalent dispatch schedule of
    each scenario, then take ``--walks`` seeded random walks, and check
    each execution for divergence, deadlock, and orphan messages.
    Exit 0: clean and exhaustive; 1: findings; 3: clean but the budget
    cut the search short."""
    import json

    from repro.analysis.mc import mc_scenarios, racy_fixture_scenario, run_mc

    scenarios = mc_scenarios()
    if args.racy_fixture:
        scenarios.append(racy_fixture_scenario())
    if args.scenario:
        if _unknown_scenario(args.scenario, [s.name for s in scenarios]):
            return 2
        scenarios = [s for s in scenarios if s.name in args.scenario]
    report = run_mc(scenarios, max_schedules=args.budget,
                    reduce=not args.no_reduce, walks=args.walks)
    if args.format == "json":
        print(json.dumps(report.as_dict(), indent=1))
    else:
        print(report.summary())
    if not report.ok:
        return 1
    return 0 if report.complete else 3


def cmd_sched(args: argparse.Namespace) -> int:
    """Concurrent collective ops through the inter-op scheduler: run
    ``--apps`` independent client groups writing simultaneously and
    compare the turnaround profile per policy (plus the paper's
    unscheduled head-of-line baseline)."""
    from repro.core.scheduler import POLICIES
    from repro.workloads.catalog import WriterGroupsParams, build

    policies: List[Optional[str]]
    policies = list(POLICIES) if args.policy == "all" else [args.policy]
    if args.baseline:
        policies.append(None)
    if args.shards > 1 and args.baseline:
        print("--shards needs the scheduler; drop --baseline",
              file=sys.stderr)
        return 2
    for policy in policies:
        built = build(WriterGroupsParams(
            policy=policy, n_apps=args.apps, n_compute=args.compute,
            n_io=args.io, shape=shape_for_mb(args.size_mb),
            priorities=tuple(args.priorities or ()), n_shards=args.shards,
        ))
        result = built.run()
        stats = built.runtime.sched_stats
        if stats is None:
            print("unscheduled baseline (head-of-line, one op at a time):")
            for op in result.ops:
                print(f"  op {op.op_id} {op.dataset:20s} "
                      f"elapsed {op.elapsed:7.3f} s")
        else:
            print(stats.summary())
            print(f"  makespan {stats.makespan():.3f} s, "
                  f"turnaround spread {stats.turnaround_spread():.3f} s, "
                  f"mean {stats.mean_turnaround():.3f} s")
        print()
    return 0


def cmd_soak(args: argparse.Namespace) -> int:
    """Soak + failover drill: one runtime through repeated load cycles
    with a mid-storm server crash in each interior cycle, checking
    byte-exact read-back and the admission-wait SLOs (see
    :mod:`repro.bench.soak`; ``benchmarks/bench_soak.py`` runs the
    committed full-hour version)."""
    from repro.bench.soak import run_slo_comparison, run_soak_drill

    out = run_soak_drill(
        n_tenants=args.tenants, n_io=args.io, n_shards=args.shards,
        cycles=args.cycles, cycle_span=args.span,
    )
    s = out["summary"]
    for row in out["cycles_detail"]:
        victim = (f"crashed server {row['crashed']}"
                  if row["crashed"] >= 0 else "crash-free")
        print(f"cycle {row['cycle']:2d}: {row['ops']:4d} op(s), "
              f"{victim}, {row['recoveries']} recover(ies), "
              f"write wait mean {row['write_wait_mean'] * 1e3:.3f} ms")
    ok = s["integrity_failures"] == 0
    print(f"{s['sim_hours']:.3f} simulated hour(s), {s['crashes']} "
          f"crash(es): read-back {'byte-exact' if ok else 'CORRUPT'} "
          f"({s['integrity_checks'] - s['integrity_failures']}"
          f"/{s['integrity_checks']}), admission wait x"
          f"{s['wait_regression']:.2f} vs baseline, recovery max "
          f"{s['recovery_max']:.3f} s")
    if args.compare:
        cmp_ = run_slo_comparison()
        print(f"slo-vs-fifo (budget {cmp_['budget']:.1f} s): slo small "
              f"p99 {cmp_['slo']['small_p99']:.3f} s "
              f"({cmp_['slo']['demoted']} demoted, "
              f"{cmp_['slo']['shed']} shed); fifo small p99 "
              f"{cmp_['fifo']['small_p99']:.3f} s")
    return 0 if ok else 1


def cmd_replay_record(args: argparse.Namespace) -> int:
    """Capture a canonical scenario into a portable JSON trace (the
    golden corpus under tests/traces/ is exactly these)."""
    from repro.replay.scenarios import record_scenario, scenario_names

    if args.list:
        print("\n".join(scenario_names()))
        return 0
    if not args.scenario:
        print("scenario name required (or --list)", file=sys.stderr)
        return 2
    if _unknown_scenario([args.scenario], scenario_names()):
        return 2
    trace = record_scenario(args.scenario)
    out = args.out or f"{args.scenario}.json"
    trace.save(out)
    print(f"recorded {args.scenario!r}: {trace.n_events} event(s), "
          f"{len(trace.doc['runs'])} run(s) -> {out}")
    return 0


def cmd_replay_run(args: argparse.Namespace) -> int:
    """Replay a trace file bit-exactly (or differentially under
    ``--policy``) on a fresh runtime built from the trace alone."""
    import json

    from repro.replay.replayer import ReplayDivergence, replay
    from repro.replay.trace import TraceFormatError, WorkloadTrace

    try:
        trace = WorkloadTrace.load(args.trace)
    except (OSError, TraceFormatError, ValueError) as exc:
        print(f"cannot load {args.trace}: {exc}", file=sys.stderr)
        return 2
    try:
        outcome = replay(trace, policy_override=args.policy)
    except ReplayDivergence as exc:
        print(f"REPLAY DIVERGED mid-flight: {exc}", file=sys.stderr)
        return 1
    stored_ok = outcome.stored == trace.expect["stored"]
    if args.format == "json":
        print(json.dumps({
            "trace": trace.name,
            "policy": args.policy,
            "ok": outcome.ok,
            "stored_equal": stored_ok,
            "runs": len(outcome.results),
            "fingerprints": sum(len(f) for f in outcome.fingerprints),
            "mismatches": outcome.mismatches,
        }, indent=1))
    elif args.policy is not None:
        print(f"differential replay of {trace.name!r} under "
              f"{args.policy!r}: stored bytes "
              f"{'identical' if stored_ok else 'DIVERGED'}")
    elif outcome.ok:
        total = sum(len(f) for f in outcome.fingerprints)
        print(f"replayed {trace.name!r} bit-exactly: {total} "
              f"fingerprint string(s) + stored bytes all match")
    else:
        for m in outcome.mismatches[:20]:
            print(m, file=sys.stderr)
    if args.policy is not None:
        return 0 if stored_ok else 1
    return 0 if outcome.ok else 1


def cmd_replay_diff(args: argparse.Namespace) -> int:
    """Replay a trace and print the fingerprint-by-fingerprint verdict."""
    from repro.replay.replayer import ReplayDivergence, diff_lines, replay
    from repro.replay.trace import TraceFormatError, WorkloadTrace

    try:
        trace = WorkloadTrace.load(args.trace)
    except (OSError, TraceFormatError, ValueError) as exc:
        print(f"cannot load {args.trace}: {exc}", file=sys.stderr)
        return 2
    try:
        outcome = replay(trace)
    except ReplayDivergence as exc:
        print(f"REPLAY DIVERGED mid-flight: {exc}", file=sys.stderr)
        return 1
    for line in diff_lines(outcome, limit=args.limit):
        print(line)
    return 0 if outcome.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Panda 2.0 (SC'95) reproduction: regenerate the "
                    "paper's tables and figures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fig = sub.add_parser("figures", help="run figure grids (default all)")
    p_fig.add_argument("figure", nargs="*", help="fig3 ... fig9")
    p_fig.add_argument("--sizes", type=lambda s: [int(x) for x in s.split(",")],
                       help="comma-separated MB sizes (subset of the sweep)")
    p_fig.set_defaults(func=_cmd_figures)

    p_t1 = sub.add_parser("table1", help="measure the simulated machine")
    p_t1.set_defaults(func=cmd_table1)

    p_pred = sub.add_parser("predict", help="analytic cost model")
    p_pred.add_argument("--kind", choices=["read", "write"], default="write")
    p_pred.add_argument("--compute", type=int, default=8)
    p_pred.add_argument("--io", type=int, default=4)
    p_pred.add_argument("--size-mb", type=int, default=64)
    p_pred.add_argument("--schema", choices=["natural", "traditional"],
                        default="natural")
    p_pred.add_argument("--fast-disk", action="store_true")
    p_pred.add_argument("--verify", action="store_true",
                        help="also simulate and report prediction error")
    p_pred.set_defaults(func=cmd_predict)

    p_cmp = sub.add_parser("compare", help="strategy comparison")
    p_cmp.add_argument("--size-mb", type=int, default=16)
    p_cmp.add_argument("--compute", type=int, default=8)
    p_cmp.add_argument("--io", type=int, default=4)
    p_cmp.set_defaults(func=cmd_compare)

    p_tr = sub.add_parser(
        "trace",
        help="run one traced figure point; export Perfetto JSON, a "
             "metrics snapshot and the critical-path verdict",
    )
    p_tr.add_argument("--figure", default="fig3", help="fig3 ... fig9")
    p_tr.add_argument("--size-mb", type=int, default=16)
    p_tr.add_argument("--io", type=int, default=None,
                      help="I/O nodes (default: the figure's smallest)")
    p_tr.add_argument("--out", default="panda-trace.json",
                      help="Chrome trace-event JSON output path")
    p_tr.add_argument("--metrics", default="panda-metrics.txt",
                      help="Prometheus-style metrics snapshot path "
                           "('' to skip)")
    p_tr.set_defaults(func=cmd_trace)

    p_lint = sub.add_parser(
        "lint",
        help="panda-lint: determinism + protocol static analysis "
             "(exit 1 on any unsuppressed finding)",
    )
    p_lint.add_argument("--root", default=".",
                        help="repo root (default: current directory)")
    p_lint.add_argument("--format", choices=["text", "json"], default="text")
    p_lint.set_defaults(func=cmd_lint)

    p_mc = sub.add_parser(
        "mc",
        help="panda-mc: exhaustive schedule-space model checking with "
             "sleep-set partial-order reduction, plus seeded random walks "
             "(exit 1 on any finding, 3 when the budget truncated the "
             "search)",
    )
    p_mc.add_argument("--scenario", action="append", metavar="NAME",
                      help="restrict to named scenario(s); repeatable")
    p_mc.add_argument("--budget", type=int, default=20000,
                      help="max executions per scenario (default 20000)")
    p_mc.add_argument("--no-reduce", action="store_true",
                      help="brute-force every interleaving (no sleep-set "
                           "pruning); for validating the reducer")
    p_mc.add_argument("--walks", type=int, default=5,
                      help="seeded random walks per scenario, seeds 1..N, "
                           "after the search (default 5)")
    p_mc.add_argument("--racy-fixture", action="store_true",
                      help="include the known-racy fixture (must yield a "
                           "PL201 finding in both modes; for validating "
                           "the checker)")
    p_mc.add_argument("--format", choices=["text", "json"], default="text")
    p_mc.set_defaults(func=cmd_mc)

    p_sched = sub.add_parser(
        "sched",
        help="concurrent collective ops through the inter-op scheduler "
             "(per-op queue-wait / turnaround table per policy)",
    )
    p_sched.add_argument("--apps", type=int, default=4,
                         help="concurrent client groups (default 4)")
    p_sched.add_argument("--policy", default="all",
                         choices=["fifo", "sjf", "fair", "slo", "all"])
    p_sched.add_argument("--compute", type=int, default=8)
    p_sched.add_argument("--io", type=int, default=4)
    p_sched.add_argument("--size-mb", type=int, default=16,
                         help="array size per app in MB (default 16)")
    p_sched.add_argument("--priorities",
                         type=lambda s: [int(x) for x in s.split(",")],
                         help="comma-separated fair-share weights, one "
                              "per app (default all 1)")
    p_sched.add_argument("--shards", type=int, default=1,
                         help="shard the admission plane over this many "
                              "dataset-partitioned masters (<= --io; "
                              "DESIGN.md section 14)")
    p_sched.add_argument("--baseline", action="store_true",
                         help="also run the unscheduled head-of-line "
                              "baseline")
    p_sched.set_defaults(func=cmd_sched)

    p_soak = sub.add_parser(
        "soak",
        help="soak + failover drill: repeated load cycles with "
             "mid-storm crashes, byte-exact read-back and SLO checks",
    )
    p_soak.add_argument("--tenants", type=int, default=48,
                        help="single-rank tenants per cycle (default 48)")
    p_soak.add_argument("--io", type=int, default=8,
                        help="I/O nodes (default 8)")
    p_soak.add_argument("--shards", type=int, default=4,
                        help="admission shard masters (default 4)")
    p_soak.add_argument("--cycles", type=int, default=6,
                        help="load cycles; the interior ones each crash "
                             "a server (default 6)")
    p_soak.add_argument("--span", type=float, default=120.0,
                        help="simulated seconds per cycle (default 120)")
    p_soak.add_argument("--compare", action="store_true",
                        help="also run the slo-vs-fifo enforcement "
                             "comparison workload")
    p_soak.set_defaults(func=cmd_soak)

    p_replay = sub.add_parser(
        "replay",
        help="workload trace capture/replay: record canonical scenarios, "
             "re-drive a trace bit-exactly, diff a replay against its "
             "recording (DESIGN.md section 17)",
    )
    replay_sub = p_replay.add_subparsers(dest="replay_cmd", required=True)

    p_rec = replay_sub.add_parser(
        "record", help="capture a canonical scenario to a trace file")
    p_rec.add_argument("scenario", nargs="?",
                       help="scenario name (omit with --list)")
    p_rec.add_argument("-o", "--out",
                       help="output path (default <scenario>.json)")
    p_rec.add_argument("--list", action="store_true",
                       help="list known scenarios and exit")
    p_rec.set_defaults(func=cmd_replay_record)

    p_run = replay_sub.add_parser(
        "run", help="replay a trace on a fresh runtime and verify the "
                    "recorded fingerprints (exit 1 on divergence)")
    p_run.add_argument("trace", help="trace file to replay")
    p_run.add_argument("--policy", choices=["fifo", "sjf", "fair", "slo"],
                       help="differential replay: re-drive the same "
                            "stimuli under this policy instead (skips "
                            "fingerprint comparison; data must still "
                            "match byte for byte)")
    p_run.add_argument("--format", choices=["text", "json"], default="text")
    p_run.set_defaults(func=cmd_replay_run)

    p_diff = replay_sub.add_parser(
        "diff", help="replay a trace and print a line-by-line "
                     "fingerprint comparison (exit 1 on divergence)")
    p_diff.add_argument("trace", help="trace file to replay")
    p_diff.add_argument("--limit", type=int, default=20,
                        help="mismatch lines to show (default 20)")
    p_diff.set_defaults(func=cmd_replay_diff)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        # outside input the command refused: a message, not a traceback
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
