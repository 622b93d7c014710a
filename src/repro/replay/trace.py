"""The WorkloadTrace: a versioned, portable JSON record of every
externally-visible stimulus of a multi-tenant run.

A trace holds exactly what is needed to re-drive a runtime from
nothing -- and nothing more:

- the machine model and runtime shape (``MachineSpec``, compute/IO
  counts, real-vs-virtual payloads);
- the full library config, including fault rates + RNG seed, scheduler
  policy/shards/SLO budget (stimuli: they select code paths and seed
  the fault PRNG streams);
- the array table: every distributed array by value (shape, dtype,
  memory/disk meshes and distributions), deduplicated by content;
- a content-addressed payload pool (sha256 -> base64 of a zlib
  stream) for write payloads in real-payload mode.  Capture writes
  stored (uncompressed) streams (see :func:`encode_payload`):
  floating-point checkpoints barely shrink, and compressing them cost
  far more host time than the few percent of trace size it saved;
- per run: the client groups, the *absolute* fail-stop crash instants,
  and one ordered event stream per rank -- binds and collective-op
  arrivals.  Op arrival times are recorded as ``float.hex()`` so replay
  re-lands on the identical float (decimal printing can alias);
- the expected outcome: per-run fingerprints plus the stored-bytes
  digest (see :mod:`repro.replay.fingerprint`).

Everything in the document is plain JSON types, so
``loads(dumps(t)) == t`` holds exactly and traces diff cleanly in git.
"""

from __future__ import annotations

import base64
import json
import zlib
from dataclasses import asdict
from typing import Any, Dict, Tuple

from repro.core.config import PandaConfig
from repro.core.protocol import ArraySpec
from repro.core.scheduler import DRR_QUANTUM, SchedulerConfig
from repro.faults import (BACKOFF, DETECT_TIMEOUT, MAX_BACKOFF, MAX_RETRIES,
                          MSG_DELAY, RETRY_DELAY, RETRY_TIMEOUT, FaultSpec)
from repro.machine import MachineSpec
from repro.obs.slo import SLOBudget
from repro.schema.chunking import DataSchema

__all__ = ["TRACE_VERSION", "WorkloadTrace", "TraceFormatError"]

#: schema version; bumped on any incompatible document change.
TRACE_VERSION = 1


class TraceFormatError(ValueError):
    """The document is not a trace this library can replay."""


# -- config (de)serialization -------------------------------------------------

def spec_to_doc(spec: ArraySpec) -> Dict[str, Any]:
    return {
        "name": spec.name,
        "shape": list(spec.shape),
        "itemsize": spec.itemsize,
        "dtype": spec.dtype,
        "mem_mesh": list(spec.memory_schema.mesh.dims),
        "mem_dists": [d.kind for d in spec.memory_schema.dists],
        "disk_mesh": list(spec.disk_schema.mesh.dims),
        "disk_dists": [d.kind for d in spec.disk_schema.dists],
        "sub_chunk_bytes": spec.sub_chunk_bytes,
    }


def spec_from_doc(doc: Dict[str, Any]) -> ArraySpec:
    shape = tuple(doc["shape"])
    return ArraySpec(
        name=doc["name"],
        shape=shape,
        itemsize=doc["itemsize"],
        dtype=doc["dtype"],
        memory_schema=DataSchema.build(shape, doc["mem_mesh"], doc["mem_dists"]),
        disk_schema=DataSchema.build(shape, doc["disk_mesh"], doc["disk_dists"]),
        sub_chunk_bytes=doc["sub_chunk_bytes"],
    )


#: config keys retired as module constants, by document section.  A
#: trace records each at its constant, so documents written while they
#: were settable still load; a document recording another value is
#: refused, since no runtime can honour it.
_RETIRED: Dict[str, Dict[str, Any]] = {
    "config": {"check_collective_consistency": True},
    "faults": {
        "msg_delay": MSG_DELAY, "retry_timeout": RETRY_TIMEOUT,
        "max_retries": MAX_RETRIES, "backoff": BACKOFF,
        "retry_delay": RETRY_DELAY, "detect_timeout": DETECT_TIMEOUT,
        "max_backoff": MAX_BACKOFF, "allow_master_crash": False,
    },
    "scheduler": {"quantum_bytes": DRR_QUANTUM},
}


def _live_keys(section: str, doc: Dict[str, Any]) -> Dict[str, Any]:
    """``doc`` without ``section``'s retired keys, each checked."""
    live = dict(doc)
    for key, fixed in _RETIRED[section].items():
        value = live.pop(key, fixed)
        if value != fixed:
            raise TraceFormatError(
                f"config key {key!r} records {value!r}, but it is fixed "
                f"at {fixed!r}")
    return live


def config_to_doc(config: PandaConfig) -> Dict[str, Any]:
    faults = None
    if config.faults is not None:
        faults = {**asdict(config.faults), **_RETIRED["faults"]}
        faults["crashes"] = [[idx, t] for idx, t in config.faults.crashes]
    sched = None
    if config.scheduler is not None:
        sched = {**asdict(config.scheduler), **_RETIRED["scheduler"]}
    return {
        "sub_chunk_bytes": config.sub_chunk_bytes,
        "nonblocking": config.nonblocking,
        **_RETIRED["config"],
        "faults": faults,
        "scheduler": sched,
    }


def config_from_doc(doc: Dict[str, Any]) -> PandaConfig:
    doc = _live_keys("config", doc)
    faults = None
    if doc["faults"] is not None:
        faults = FaultSpec(**_live_keys("faults", doc["faults"]))
    sched = None
    if doc["scheduler"] is not None:
        sd = _live_keys("scheduler", doc["scheduler"])
        if sd.get("slo") is not None:
            sd["slo"] = SLOBudget(**sd["slo"])
        sched = SchedulerConfig(**sd)
    return PandaConfig(
        sub_chunk_bytes=doc["sub_chunk_bytes"],
        nonblocking=doc["nonblocking"],
        faults=faults,
        scheduler=sched,
    )


# -- payload pool -------------------------------------------------------------

def encode_payload(raw) -> str:
    """base64 of a stored (level-0) zlib stream of a C-contiguous
    buffer's bytes.

    Checkpoint payloads are floating-point fields that barely compress:
    level 6 saved 3.9% of a checkpoint storm's trace size for about 40%
    of its host time.  A stored stream is still a zlib stream, so the
    reader is one ``zlib.decompress`` and traces written with
    compressed payloads keep loading."""
    return base64.b64encode(zlib.compress(raw, 0)).decode("ascii")


def _check_references(doc: Dict[str, Any]) -> None:
    """Every array key and payload sha an event names is in the
    document, so a dangling reference fails at load instead of inside a
    rank's app mid-replay.  Decodes no payload."""
    arrays, payloads = doc["arrays"], doc["payloads"]
    for k, run in enumerate(doc["runs"]):
        for rank, events in run["events"].items():
            for ev in events:
                keys = [ev["array"]] if ev["type"] == "bind" else ev["arrays"]
                for key in keys:
                    if key not in arrays:
                        raise TraceFormatError(
                            f"run {k}, rank {rank}: array {key!r} is not in "
                            "the trace's array table")
                for sha in ev.get("payload", {}).values():
                    if sha not in payloads:
                        raise TraceFormatError(
                            f"run {k}, rank {rank}: payload {sha} is not in "
                            "the trace's payload pool")


class WorkloadTrace:
    """A captured workload: wrapper over the plain-JSON document.

    Construction goes through :class:`repro.replay.capture.
    TraceRecorder` (capture) or :meth:`loads`/:meth:`load`
    (deserialization); :mod:`repro.replay.replayer` consumes it.
    """

    def __init__(self, doc: Dict[str, Any]) -> None:
        if doc.get("version") != TRACE_VERSION:
            raise TraceFormatError(
                f"trace version {doc.get('version')!r} != supported "
                f"{TRACE_VERSION}"
            )
        for key in ("runtime", "machine", "config", "arrays", "payloads",
                    "runs", "expect"):
            if key not in doc:
                raise TraceFormatError(f"trace document missing {key!r}")
        _check_references(doc)
        config_from_doc(doc["config"])
        self.doc = doc
        #: sha -> (encoded blob, its bytes): see :meth:`payload`
        self._inflated: Dict[str, Tuple[str, bytes]] = {}

    # -- identity ---------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        return isinstance(other, WorkloadTrace) and self.doc == other.doc

    def __repr__(self) -> str:
        r = self.doc["runtime"]
        return (
            f"<WorkloadTrace {self.name!r} v{self.doc['version']}: "
            f"{r['n_compute']}c/{r['n_io']}io, {len(self.doc['runs'])} "
            f"run(s), {self.n_events} event(s)>"
        )

    @property
    def name(self) -> str:
        return self.doc.get("name", "")

    @property
    def meta(self) -> Dict[str, Any]:
        """Free-form provenance (generator parameters, seeds).  Carried
        through replay-recapture; never consulted by the replayer."""
        return self.doc.get("meta", {})

    @property
    def n_events(self) -> int:
        return sum(
            len(evs) for run in self.doc["runs"]
            for evs in run["events"].values()
        )

    @property
    def expect(self) -> Dict[str, Any]:
        return self.doc["expect"]

    # -- reconstruction helpers ------------------------------------------
    def machine(self) -> MachineSpec:
        return MachineSpec(**self.doc["machine"])

    def config(self) -> PandaConfig:
        return config_from_doc(self.doc["config"])

    def array_spec(self, key: str) -> ArraySpec:
        return spec_from_doc(self.doc["arrays"][key])

    def payload(self, sha: str) -> bytes:
        """The bytes of pooled payload ``sha``, inflated once per trace
        however many ops and replays ship it.  The memo remembers which
        encoded string it inflated, so an edited ``doc`` is decoded
        afresh."""
        blob = self.doc["payloads"][sha]
        hit = self._inflated.get(sha)
        if hit is None or hit[0] is not blob:
            hit = self._inflated[sha] = (
                blob, zlib.decompress(base64.b64decode(blob)))
        return hit[1]

    # -- (de)serialization ------------------------------------------------
    def dumps(self) -> str:
        return json.dumps(self.doc, indent=1, sort_keys=True)

    @classmethod
    def loads(cls, text: str) -> "WorkloadTrace":
        return cls(json.loads(text))

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.dumps())
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "WorkloadTrace":
        with open(path) as fh:
            return cls.loads(fh.read())

    @staticmethod
    def equivalent(a: "WorkloadTrace", b: "WorkloadTrace") -> bool:
        """Equality modulo the schema version field (capture->replay->
        capture across a version bump still names the same workload)."""
        da = {k: v for k, v in a.doc.items() if k != "version"}
        db = {k: v for k, v in b.doc.items() if k != "version"}
        return da == db


def canonical_json(value: Any) -> Any:
    """Round ``value`` through JSON so the in-memory document holds
    exactly what a saved file would (tuples become lists, dict keys
    become strings).  Keeps ``loads(dumps(t)) == t`` structural."""
    return json.loads(json.dumps(value))
