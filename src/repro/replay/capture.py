"""TraceRecorder: the capture side of workload replay.

One recorder attaches to one runtime (``runtime.recorder``) before its
first run and observes the three capture points:

- ``PandaRuntime.run_partitioned`` entry/exit -- run boundaries, client
  groups, and the run's *effective* fail-stop crash plan as absolute
  simulated instants (``reschedule_crashes`` and the replayer both
  change the plan per run, so the hook receives what will actually be
  scheduled, not what the construction-time config said);
- ``PandaClient.bind`` -- array registrations, by value;
- ``PandaClient.collective`` entry -- the op arrival: instant, rank,
  dataset, kind, priority, arrays, and (real-payload writes) the bound
  bytes at that instant, content-addressed into the payload pool.
  Payloads are snapshotted *at arrival*, not at bind: applications
  routinely rewrite a bound buffer between ops, and the bytes an op
  ships are the bytes present when it enters.  A later
  ``OpRejected`` marks the same event rejected -- shed ops are stimuli
  too and must replay to the same collective rejection.

Capture is passive: it never schedules, charges, or mutates anything,
so a captured run is bit-identical to an uncaptured one.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.costmodel import estimate_op
from repro.core.protocol import ArraySpec, CollectiveOp
from repro.replay.fingerprint import digest_stored, run_strings
from repro.replay.trace import (
    TRACE_VERSION,
    WorkloadTrace,
    canonical_json,
    config_to_doc,
    encode_payload,
    spec_to_doc,
)

__all__ = ["TraceRecorder"]


class TraceRecorder:
    """Attach to a fresh runtime; call :meth:`trace` after its run(s)."""

    def __init__(self, runtime, name: str = "capture",
                 meta: Optional[Dict[str, Any]] = None) -> None:
        if getattr(runtime, "recorder", None) is not None:
            raise ValueError("runtime already has a recorder attached")
        if runtime.sim.now != 0.0:
            raise ValueError(
                "attach the recorder before the runtime's first run: a "
                "trace must hold every stimulus from t=0"
            )
        from dataclasses import asdict

        self.runtime = runtime
        self._arrays: Dict[str, Dict[str, Any]] = {}
        self._spec_key: Dict[ArraySpec, str] = {}
        self._payloads: Dict[str, str] = {}
        self._runs: List[Dict[str, Any]] = []
        self._expect_runs: List[List[str]] = []
        self._stored = ""
        #: (rank, op_serial-ish) -> event, for rejection marking;
        #: keyed per run on (rank, op_id) -- op ids are per-rank serial
        #: so the pair is unique within a runtime's lifetime.
        self._open_ops: Dict[Tuple[int, int], Dict[str, Any]] = {}
        self._head: Dict[str, Any] = {
            "version": TRACE_VERSION,
            "name": name,
            "meta": canonical_json(meta or {}),
            "runtime": {
                "n_compute": runtime.n_compute,
                "n_io": runtime.n_io,
                "real_payloads": runtime.real_payloads,
            },
            "machine": canonical_json(asdict(runtime.spec)),
            "config": canonical_json(config_to_doc(runtime.config)),
        }
        runtime.recorder = self

    # -- runtime hooks ----------------------------------------------------
    def on_run_start(self, groups: List[Tuple[int, ...]],
                     crashes_abs: List[Tuple[int, float]]) -> None:
        self._runs.append({
            "groups": [list(g) for g in groups],
            "crashes": [[idx, t.hex()] for idx, t in crashes_abs],
            "events": {},
        })
        self._open_ops = {}

    def on_run_end(self, result, stats) -> None:
        self._expect_runs.append(run_strings(result, stats))
        self._stored = digest_stored(self.runtime)

    # -- client hooks -----------------------------------------------------
    def _key_for(self, spec: ArraySpec) -> str:
        key = self._spec_key.get(spec)
        if key is not None:
            return key
        key, n = spec.name, 2
        while key in self._arrays:  # same name, different geometry
            key = f"{spec.name}#{n}"
            n += 1
        self._arrays[key] = spec_to_doc(spec)
        self._spec_key[spec] = key
        return key

    def _events(self, rank: int) -> List[Dict[str, Any]]:
        return self._runs[-1]["events"].setdefault(str(rank), [])

    def on_bind(self, rank: int, spec: ArraySpec) -> None:
        if not self._runs:
            raise ValueError("bind outside a run cannot be captured")
        self._events(rank).append({
            "type": "bind", "array": self._key_for(spec),
        })

    def on_op_enter(self, client, op: CollectiveOp) -> None:
        rt = self.runtime
        event: Dict[str, Any] = {
            "type": "op",
            "t": client.comm.sim.now.hex(),
            "kind": op.kind,
            "dataset": op.dataset,
            "arrays": [self._key_for(s) for s in op.arrays],
            "priority": op.priority,
            "rejected": False,
        }
        if rt.config.scheduler is not None:
            # informational: the cost-model estimate the scheduler's SJF
            # key will compute from the same op (derived, not a stimulus)
            event["estimate"] = estimate_op(
                op, rt.n_io, rt.spec, rt.config
            ).hex()
        if op.kind == "write" and rt.real_payloads:
            payload: Dict[str, str] = {}
            for spec in op.arrays:
                data = client._state["data"].get(spec.name)
                if data is None:
                    continue
                raw = np.ascontiguousarray(data)  # hashed and encoded in place
                sha = hashlib.sha256(raw).hexdigest()
                if sha not in self._payloads:
                    self._payloads[sha] = encode_payload(raw)
                payload[spec.name] = sha
            if payload:
                event["payload"] = payload
        self._events(client.rank).append(event)
        self._open_ops[(client.rank, op.op_id)] = event

    def on_op_rejected(self, rank: int, op: CollectiveOp) -> None:
        self._open_ops[(rank, op.op_id)]["rejected"] = True

    # -- the result -------------------------------------------------------
    def trace(self) -> WorkloadTrace:
        """The captured trace (callable once runs have completed; later
        runs keep extending the same document)."""
        doc = dict(self._head)
        doc["arrays"] = canonical_json(self._arrays)
        doc["payloads"] = dict(self._payloads)
        doc["runs"] = canonical_json(self._runs)
        doc["expect"] = {
            "runs": canonical_json(self._expect_runs),
            "stored": self._stored,
        }
        return WorkloadTrace(doc)
