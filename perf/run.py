#!/usr/bin/env python3
"""Host-time benchmark of every path people run, with a per-layer attribution.

    python3 perf/run.py                      # all seven workloads, 5 reps + a traced round
    python3 perf/run.py --smoke              # the same at a tenth of the size (< 25 s)
    python3 perf/run.py --workload NAME --reps 3
    python3 perf/run.py --selftest           # prove that the checks can fail
    python3 perf/run.py --compare A.json B.json
    python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1   # BENCHMARK.json

Every repetition is a fresh single-threaded child interpreter
(``child.py``), one at a time, so process-wide memos start cold as they
do for a CLI user.  One warm-up child per workload is discarded; the
measured repetitions are interleaved round-robin across workloads.
End-to-end metrics come from unprofiled repetitions; a traced
repetition under cProfile gives the per-layer numbers.  With exactly
one workload the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.

See README.md beside this file for the workload and metric glossary.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

import inputs
import metrics

PERF = pathlib.Path(__file__).resolve().parent
ROOT = PERF.parent
MANIFEST = ROOT / "BENCHMARK.json"
BASELINE = PERF / "baseline.json"

DEFAULT_REPS = 5
#: fewest untraced repetitions a time-boxed run will report on.
MIN_BOXED_REPS = 3
#: a repetition whose CPU time is below this share of its wall time
#: had to wait for the host; it is run again once.
DISTURBED_BELOW = 0.9
CHILD_TIMEOUT_S = 170


def spawn(workload: str, seed: int, size: str, profile: bool,
          canary: Optional[str]) -> Dict[str, Any]:
    """Run one repetition in a fresh interpreter and return its record."""
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    # children cache bytecode like any CLI user's interpreter, whatever
    # the caller's shell says: set-up time must not depend on it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    cmd = [sys.executable, str(PERF / "child.py"), "--workload", workload,
           "--seed", str(seed), "--size", size, "--profile", str(int(profile)),
           "--spawned-at", repr(time.monotonic())]
    if canary:
        cmd += ["--canary", canary]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: child exited {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measured(workload: str, seed: int, size: str, canary: Optional[str],
             book: Dict[str, Any]) -> Dict[str, Any]:
    """One untraced repetition, run again once if the host disturbed it."""
    rep = spawn(workload, seed, size, False, canary)
    if rep["cpu_wall_ratio"] < DISTURBED_BELOW:
        book["rerun"] += 1
        rep = spawn(workload, seed, size, False, canary)
        if rep["cpu_wall_ratio"] < DISTURBED_BELOW:
            book["disturbed"] += 1
    return rep


def measure(names: List[str], seed: int, size: str, reps: Optional[int],
            seconds: Optional[float], trace: Optional[int],
            canary: Optional[str]) -> Dict[str, Dict[str, Any]]:
    """Warm up, then run rounds (one repetition of every workload per
    round) until ``reps`` rounds are done or ``seconds`` per workload
    are used up.  ``trace``: 0 = no traced repetition, 1 = one in every
    round, None = one round of them at the end."""
    books = {name: {"untraced": [], "traced": [], "rerun": 0, "disturbed": 0}
             for name in names}
    for name in names:  # discarded: fills .pyc files and the page cache
        spawn(name, seed, "smoke", False, None)
    least = 1 if trace == 1 else MIN_BOXED_REPS
    began = time.monotonic()
    rounds: List[float] = []

    def another_round() -> bool:
        if reps is not None:
            return len(rounds) < reps
        if len(rounds) < least:
            return True
        # time-boxed: only if at least half of another round fits
        used = time.monotonic() - began
        return used + 0.5 * statistics.mean(rounds) <= seconds * len(names)

    while another_round():
        started = time.monotonic()
        for name in names:
            books[name]["untraced"].append(measured(name, seed, size, canary, books[name]))
            if trace == 1:
                books[name]["traced"].append(spawn(name, seed, size, True, canary))
        rounds.append(time.monotonic() - started)
    if trace is None:
        for name in names:
            books[name]["traced"].append(spawn(name, seed, size, True, canary))
    return books


def aggregate(name: str, book: Dict[str, Any]) -> Dict[str, Any]:
    """One workload's result: end-to-end medians and quartiles, failed
    over attempted, the exact counts, and the per-layer metrics."""
    untraced, traced = book["untraced"], book["traced"]
    exact = untraced[0]["exact"]
    attempted = failed = 0
    failures: List[str] = []
    for rep in untraced + traced:
        # a repetition fails whole when it is not the same computation
        # as the first one, or when its profile does not add up
        whole = []
        differs = sorted(k for k in exact if rep["exact"].get(k) != exact[k])
        if differs:
            whole.append(f"{name}: exact counts differ between repetitions: {differs}")
        if rep["profiled"]:
            total = rep["profiled_total_s"]
            parts = sum(row["self_s"] for row in rep["layers"].values())
            if abs(parts - total) > 1e-6 * max(total, 1.0):
                whole.append(f"{name}: layer self times sum to {parts!r}, profiled {total!r}")
        attempted += rep["attempted"]
        failed += rep["attempted"] if whole else rep["failed"]
        failures += rep["failures"] + whole
    end_to_end = {}
    for m in metrics.END_TO_END:
        stat = metrics.summary(m["name"], [r[m["name"]] for r in untraced])
        if m["name"] == "wall_s":
            stat["value"] = metrics.fastest_spans([r["timed_s"] for r in untraced])
        stat.update(unit=m["unit"], bound=m["bound"], unresolved=stat["noise"] > m["bound"])
        end_to_end[m["name"]] = stat
    return {
        "inputs": untraced[0]["size"],
        "seeded": inputs.WORKLOADS[name]["seeded"],
        "reps": len(untraced),
        "traced_reps": len(traced),
        "rerun": book["rerun"],
        "disturbed": book["disturbed"],
        "attempted": attempted,
        "failed": failed,
        "fail_share": failed / attempted,
        "failures": failures[:10],
        "end_to_end": end_to_end,
        "exact": exact,
        "per_layer": metrics.per_layer_values(untraced, traced[-1] if traced else None),
        "traced_wall_s": traced[-1]["wall_s"] if traced else None,
        "profiled_total_s": traced[-1]["profiled_total_s"] if traced else None,
    }


# -- reporting ---------------------------------------------------------------

def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "null"
    if isinstance(value, int) or float(value).is_integer() and abs(value) >= 10:
        return f"{int(value)}"
    return f"{value:.4g}"


def report(results: Dict[str, Dict[str, Any]], trace: Optional[int]) -> None:
    """Every metric by name with its unit, one column per workload."""
    names = list(results)
    print(f"{'end-to-end':34s} {'unit':6s} {'value':>10s} {'median':>10s} {'q1':>10s} "
          f"{'q3':>10s} {'n':>3s} {'noise':>6s} {'bound':>6s}")
    for name in names:
        res = results[name]
        for metric, stat in res["end_to_end"].items():
            flag = "  unresolved" if stat["unresolved"] else ""
            print(f"{name + '.' + metric:34s} {stat['unit']:6s} {stat['value']:10.4f} "
                  f"{stat['median']:10.4f} {stat['q1']:10.4f} {stat['q3']:10.4f} "
                  f"{stat['n']:3d} {stat['noise']:6.3f} {stat['bound']:6.2f}{flag}")
        disturbed = f", {res['disturbed']} disturbed" if res["disturbed"] else ""
        print(f"{name + '.fail_share':34s} {'ratio':6s} {res['fail_share']:10.4f} "
              f"({res['failed']} of {res['attempted']} operations failed; "
              f"{res['rerun']} reps rerun{disturbed})")
    if trace != 0:
        width = max(12, *(len(n) for n in names))
        print()
        print(f"{'per-layer':42s} {'unit':6s} " + " ".join(f"{n:>{width}s}" for n in names))
        for row in metrics.PER_LAYER:
            cells = " ".join(f"{_fmt(results[n]['per_layer'][row['name']]):>{width}s}"
                             for n in names)
            print(f"{row['name']:42s} {row['unit']:6s} {cells}")
    for name in names:
        for message in results[name]["failures"]:
            print(f"FAILED {message}")


def contract_line(res: Dict[str, Any], trace: Optional[int]) -> str:
    """The one-object result line BENCHMARK.json's driver reads."""
    out: Dict[str, Dict[str, Any]] = {}
    if trace != 1:
        for metric, stat in res["end_to_end"].items():
            out[metric] = {"value": stat["value"], "unit": stat["unit"]}
    if trace != 0:
        for row in metrics.PER_LAYER:
            value = res["per_layer"][row["name"]]
            # the line carries numbers only: a probe whose function is
            # gone (null in the report and in result.json) reads 0 here
            out[row["name"]] = {"value": 0.0 if value is None else value, "unit": row["unit"]}
    return json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                       "failed": res["failed"], "metrics": out})


def host() -> Dict[str, Any]:
    return {"platform": platform.platform(), "machine": platform.machine(),
            "python": platform.python_version(), "cpus": os.cpu_count(),
            "load_avg_1m": os.getloadavg()[0]}


def write_out(out_dir: pathlib.Path, doc: Dict[str, Any],
              books: Dict[str, Dict[str, Any]]) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "result.json").write_text(json.dumps(doc, indent=1) + "\n")
    spans = []
    for name, book in books.items():
        for rep_index, rep in enumerate(book["untraced"] + book["traced"]):
            for span in rep["spans"]:
                spans.append({**span, "workload": name, "rep": rep_index,
                              "profiled": rep["profiled"]})
    (out_dir / "spans.json").write_text(json.dumps(spans) + "\n")


# -- comparing two results ---------------------------------------------------

def verdict(metric: Dict[str, Any], a: Dict[str, Any], b: Dict[str, Any]) -> str:
    """better / worse / unchanged / unresolved for one (workload,
    end-to-end metric): B against A, lower is better for all of them."""
    if max(a["noise"], b["noise"]) > metric["bound"]:
        return "unresolved"
    slack = metric["bound"] * a["value"]
    if metric["name"] == "setup_s":
        slack = max(slack, metrics.SETUP_ABS_SLACK_S)
    if b["value"] > a["value"] + slack:
        return "worse"
    if b["value"] < a["value"] - slack:
        return "better"
    return "unchanged"


def compare(path_a: str, path_b: str) -> int:
    a_doc, b_doc = (json.loads(pathlib.Path(p).read_text()) for p in (path_a, path_b))
    bad = 0
    print(f"{'workload.metric':34s} {'A value':>9s} {'A median':>9s} {'A q1..q3':>17s} "
          f"{'B value':>9s} {'B median':>9s} {'B q1..q3':>17s} {'bound':>6s}  verdict")
    for name, a in a_doc["workloads"].items():
        b = b_doc["workloads"].get(name)
        if b is None:
            print(f"{name}: missing from {path_b}")
            bad += 1
            continue
        for metric in metrics.END_TO_END:
            sa, sb = a["end_to_end"][metric["name"]], b["end_to_end"][metric["name"]]
            word = verdict(metric, sa, sb)
            bad += word == "worse"
            print(f"{name + '.' + metric['name']:34s} " + " ".join(
                f"{s['value']:9.4f} {s['median']:9.4f} {s['q1']:8.4f}..{s['q3']:<7.4f}"
                for s in (sa, sb)) + f" {metric['bound']:6.2f}  {word}")
        word = "worse" if b["fail_share"] > a["fail_share"] else "unchanged"
        bad += word == "worse"
        print(f"{name + '.fail_share':34s} {a['fail_share']:9.4f} {'':27s} "
              f"{b['fail_share']:9.4f} {'':27s} {0:6.2f}  {word}")
        same_input = (a["inputs"] == b["inputs"]
                      and (not a["seeded"] or a_doc["seed"] == b_doc["seed"]))
        if same_input:
            differs = sorted(k for k in a["exact"] if b["exact"].get(k) != a["exact"][k])
            if differs:
                bad += 1
                print(f"{name}: exact counts differ: " + ", ".join(
                    f"{k} {a['exact'][k]} -> {b['exact'].get(k)}" for k in differs))
        else:
            print(f"{name}: inputs differ (seed or size), exact counts not compared")
    print("no worse row, exact counts equal" if not bad else f"{bad} worse row(s) or mismatches")
    return 1 if bad else 0


# -- canaries ----------------------------------------------------------------

def selftest(seed: int) -> int:
    """Each canary corrupts one thing its workload's check must catch:
    the run must report failed operations and exit non-zero."""
    escaped = 0
    for workload, canary in inputs.CANARIES.items():
        proc = subprocess.run(
            [sys.executable, str(PERF / "run.py"), "--smoke", "--reps", "1", "--trace", "0",
             "--workload", workload, "--seed", str(seed), "--canary", canary],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        try:
            line = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            line = {}  # the run died before its result line: not a catch
        caught = proc.returncode != 0 and line.get("failed", 0) > 0 and not line["correct"]
        escaped += not caught
        print(f"{workload:16s} {canary:18s} exit {proc.returncode}, "
              f"{line.get('failed')} of {line.get('attempted')} failed: "
              f"{'caught' if caught else 'NOT CAUGHT'}")
    return 1 if escaped else 0


# -- BENCHMARK.json ----------------------------------------------------------

def manifest() -> Dict[str, Any]:
    """BENCHMARK.json, generated from the tables this benchmark runs on
    so that the two cannot drift apart."""
    return {
        "command": ["python3", "perf/run.py"],
        "paths": ["perf"],
        "run_seconds": 12,
        "workloads": [{"name": name, "why": spec["why"]}
                      for name, spec in inputs.WORKLOADS.items()],
        "end_to_end": [dict(m) for m in metrics.END_TO_END],
        "per_layer": metrics.PER_LAYER,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", choices=sorted(inputs.WORKLOADS),
                        help="run only this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=0,
                        help="feeds the generators of " + ", ".join(
                            n for n, s in inputs.WORKLOADS.items() if s["seeded"]))
    parser.add_argument("--reps", type=int, help=f"measured rounds (default {DEFAULT_REPS})")
    parser.add_argument("--seconds", type=float,
                        help="instead of --reps: measure for this long per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics only; 1: per-layer metrics, a traced "
                             "repetition in every round; default: both, one traced round")
    parser.add_argument("--smoke", action="store_true", help="a tenth of the size, 2 reps")
    parser.add_argument("--out", help="directory for result.json and spans.json")
    parser.add_argument("--baseline", action="store_true",
                        help=f"also write the result to {BASELINE.relative_to(ROOT)}")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--write-manifest", action="store_true",
                        help=f"regenerate {MANIFEST.name} from this benchmark's tables")
    parser.add_argument("--canary", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if args.write_manifest:
        MANIFEST.write_text(json.dumps(manifest(), indent=1) + "\n")
        return 0
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perf/run.py: no library to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.selftest:
        return selftest(args.seed)

    names = args.workload or list(inputs.WORKLOADS)
    reps = args.reps
    if reps is None and args.seconds is None:
        reps = 2 if args.smoke else DEFAULT_REPS
    size = "smoke" if args.smoke else "full"
    books = measure(names, args.seed, size, reps, args.seconds, args.trace, args.canary)
    results = {name: aggregate(name, books[name]) for name in names}
    report(results, args.trace)
    doc = {"command": sys.argv, "seed": args.seed, "size": size, "host": host(),
           "workloads": results}
    out_dir = pathlib.Path(args.out) if args.out else (
        PERF / "out" / f"{time.strftime('%Y%m%d-%H%M%S')}-{os.getpid()}")
    write_out(out_dir, doc, books)
    print(f"wrote {out_dir / 'result.json'}")
    if args.baseline:
        BASELINE.write_text(json.dumps(doc, indent=1) + "\n")
    if len(names) == 1:
        print(contract_line(results[names[0]], args.trace))
    return 0 if all(r["failed"] == 0 for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
