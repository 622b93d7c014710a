"""Exact run fingerprints, shared by panda-mc and the replayer.

A fingerprint is a tuple of strings pinning everything the determinism
contract promises: per-op timings as float hex (never decimal -- two
different floats can print the same), admission-schedule records when a
scheduler ran, and a sha256 digest over every client's stored bytes.
panda-mc (:mod:`repro.analysis.mc`) compares fingerprints across
dispatch orders; the replayer (:mod:`repro.replay.replayer`) compares
a replayed run against the fingerprint its trace was captured with.  Both must
agree on the format, which is why it lives here and nowhere else.
"""

from __future__ import annotations

import hashlib
from typing import List, Optional, Tuple

__all__ = [
    "digest_stored",
    "fingerprint",
    "op_strings",
    "sched_strings",
    "run_strings",
]


def digest_stored(runtime: object) -> str:
    """sha256 over every client's bound arrays, in (rank, name) order.
    Virtual payloads contribute their None placeholders only."""
    h = hashlib.sha256()
    states = getattr(runtime, "_client_state", {})
    for rank in sorted(states):
        for name in sorted(states[rank]["data"]):
            arr = states[rank]["data"][name]
            h.update(f"{rank}:{name}:".encode())
            if arr is not None:
                h.update(arr.tobytes())
    return h.hexdigest()


def op_strings(ops) -> List[str]:
    """One string per completed collective op: kind, elapsed time as
    float hex, total bytes moved."""
    return [f"{op.kind}:{op.elapsed.hex()}:{op.total_bytes}" for op in ops]


def _hx(t: Optional[float]) -> str:
    """float hex, with a placeholder for the instants an interrupted
    record never reached (e.g. an op orphaned by its shard master's
    crash and moved to the surviving owner)."""
    return t.hex() if t is not None else "-"


def sched_strings(stats: Optional[object]) -> List[str]:
    """One string per admission-schedule record (empty when the run was
    unscheduled): admit_seq, dataset, arrival/admission/completion
    instants as float hex, bytes moved."""
    if stats is None:
        return []
    return [
        f"{r.admit_seq}:{r.dataset}:{_hx(r.arrived)}:"
        f"{_hx(r.admitted)}:{_hx(r.completed)}:{r.moved}"
        for r in stats.ops
    ]


def run_strings(result, stats: Optional[object]) -> List[str]:
    """The full per-run fingerprint: op timings plus the admission
    schedule.  The stored-bytes digest is per *runtime* (state persists
    across runs) and is pinned separately."""
    return op_strings(result.ops) + sched_strings(stats)


def fingerprint(built, result) -> Tuple[str, ...]:
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
