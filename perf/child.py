"""One repetition of one workload, in a fresh interpreter.

``run.py`` starts this file as a child process, so that process-wide
plan and geometry memos start cold exactly as they do for a CLI user,
and reads one JSON object from the last line of its standard output.
With ``--profile 1`` the workload runs under cProfile and the object
also carries the per-layer table (see ``layers.py``).
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import json
import os
import pathlib
import pstats
import resource
import sys
import time

PERF_DIR = pathlib.Path(__file__).resolve().parent
SRC_ROOT = PERF_DIR.parent / "src"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "smoke"), required=True)
    parser.add_argument("--profile", type=int, choices=(0, 1), default=0)
    parser.add_argument("--canary", default=None)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent just before the spawn")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC_ROOT))
    import inputs
    import layers
    import workloads

    size = inputs.WORKLOADS[args.workload][args.size]
    seed = args.seed & 0xFFFFFFFF  # any integer is a seed; numpy wants it non-negative
    profiler = cProfile.Profile() if args.profile else None
    rec = workloads.Recorder(profiler)
    # imports are done: from here on the child only computes, so its
    # CPU time should match its wall time unless the host is disturbed
    began, began_cpu = time.monotonic(), time.process_time()
    with rec.span(args.workload, "rep"):
        workloads.RUNNERS[args.workload](rec, size, seed, args.canary)
    ended, ended_cpu = time.monotonic(), time.process_time()

    # span times relative to the spawn; seconds per span kind, over the
    # spans directly under the root
    by_kind = {}
    for span in rec.spans:
        span["start"] -= args.spawned_at
        span["end"] -= args.spawned_at
        if span["parent"] == 0:
            by_kind[span["kind"]] = by_kind.get(span["kind"], 0.0) + span["end"] - span["start"]
    timed_s = [span["end"] - span["start"] for span in rec.spans
               if span["parent"] == 0 and span["kind"] in workloads.TIMED_KINDS]
    usage = resource.getrusage(resource.RUSAGE_SELF)
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "size": size,
        "profiled": bool(args.profile),
        "attempted": rec.attempted,
        "failed": rec.failed,
        "failures": rec.failures,
        "wall_s": sum(timed_s),
        "timed_s": timed_s,
        "setup_s": rec.spans[1]["start"],
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # Linux reports KB
        "span_s": by_kind,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "cpu_wall_ratio": (ended_cpu - began_cpu) / (ended - began),
        "load_avg_1m": os.getloadavg()[0],
        # exact: must repeat bit for bit between repetitions of one code
        "exact": {
            **rec.counters,
            "ops_completed": rec.ops_completed,
            "queue_peak": rec.queue_peak,
            "demoted": rec.demoted,
            "shed": rec.shed,
            "admission_wait_sum_hex": float(sum(rec.waits)).hex(),
            "admission_waits": len(rec.waits),
            "trace_records": rec.trace_records,
            "trace_bytes": rec.trace_bytes,
            "sim_elapsed_s_hex": float(sum(rec.sim_elapsed)).hex(),
            "sim_elapsed_digest": hashlib.sha256(
                " ".join(t.hex() for t in rec.sim_elapsed).encode()).hexdigest(),
        },
        "spans": rec.spans,
    }
    if profiler is not None:
        stats = pstats.Stats(profiler)
        table, total = layers.bucket(stats)
        out["layers"] = table
        out["profiled_total_s"] = total
        out["probes"] = layers.probes(stats, SRC_ROOT)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
