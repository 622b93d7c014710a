"""Workload trace capture/replay: every production scenario becomes a
regression test.

- :mod:`repro.replay.trace` -- the versioned, portable JSON trace
  format (:class:`WorkloadTrace`);
- :mod:`repro.replay.capture` -- :class:`TraceRecorder`, attached to a
  runtime before its first run, recording every externally-visible
  stimulus;
- :mod:`repro.replay.replayer` -- :func:`replay`, re-driving a fresh
  runtime from a trace alone and checking byte-exact fingerprints;
- :mod:`repro.replay.fingerprint` -- the exact-result fingerprint
  format, shared with the race detector;
- :mod:`repro.replay.scenarios` -- which catalogue entries
  (:data:`repro.workloads.catalog.CATALOG`) make up the golden corpus,
  and the build-attach-run recording behind ``python -m repro replay
  record``.

See DESIGN.md section 17 for the trace schema and the determinism
contract that makes bit-exact replay possible.
"""

from repro.replay.capture import TraceRecorder
from repro.replay.fingerprint import digest_stored, run_strings
from repro.replay.replayer import (
    ReplayDivergence,
    ReplayOutcome,
    build_runtime,
    diff_lines,
    replay,
)
from repro.replay.trace import TRACE_VERSION, TraceFormatError, WorkloadTrace

__all__ = [
    "TRACE_VERSION",
    "TraceFormatError",
    "TraceRecorder",
    "WorkloadTrace",
    "ReplayDivergence",
    "ReplayOutcome",
    "build_runtime",
    "diff_lines",
    "digest_stored",
    "replay",
    "run_strings",
]
