"""Canonical capture scenarios: the golden trace corpus.

Each scenario is a catalogue entry (:data:`repro.workloads.catalog.
CATALOG`) recorded under a :class:`TraceRecorder`.  The CLI (``python
-m repro replay record``) serializes them under ``tests/traces/`` where
the regression suite replays them bit-exactly; re-recording a scenario
must reproduce the committed golden byte for byte, which is itself a
regression test (the capture path is part of the determinism contract).

The corpus spans the stimulus space the replayer must cover:

- ``roundtrip``: one 4-rank group, scheduled fifo admission, real
  payloads, a write and a read-back of the same dataset;
- ``sharded-fault``: two 2-rank groups under 2 admission shards with a
  shard-master crash mid-queue plus message drops/delays -- ops
  re-route to the surviving master and data-plane recovery rebuilds
  the dead server's portions;
- ``slo-shed``: a checkpoint herd against an exhausted latency budget
  -- shed ops (:class:`OpRejected`) are stimuli and replay identically;
- ``storm-small``: the acceptance combo -- a checkpoint-restart storm
  across 2 shards with a shard-master crash, message faults *and* SLO
  shedding in one capture.
"""

from __future__ import annotations

from typing import List

from repro.replay.capture import TraceRecorder
from repro.replay.trace import WorkloadTrace
from repro.workloads.catalog import CATALOG, build

__all__ = ["RECORDED", "record_scenario", "scenario_names"]

#: the catalogue entries with a committed golden trace.
RECORDED = ("roundtrip", "sharded-fault", "slo-shed", "storm-small")


def record_scenario(name: str) -> WorkloadTrace:
    """Capture scenario ``name`` fresh (deterministic: identical bytes
    every time)."""
    built = build(CATALOG[name])
    rec = TraceRecorder(built.runtime, name=name, meta={"scenario": name})
    built.run()
    assert not built.corrupt, f"{name}: corrupt restart reads"
    return rec.trace()


def scenario_names() -> List[str]:
    return sorted(RECORDED)
