"""Deterministic fault injection for the simulated machine.

The paper assumes I/O nodes, disks and the interconnect never fail.
This module adds the fault model a server-based I/O system needs once
it leaves the dedicated-machine setting: transient disk errors, message
drop/delay on the data plane, and whole-I/O-node (fail-stop) crashes.

Determinism
-----------
A :class:`FaultPlan` never consults wall-clock randomness.  Every
decision is drawn from a named per-stream PRNG seeded from
``(spec.seed, stream key)`` -- one stream per disk, one per directed
network link and fault kind.  Decisions are drawn in simulation event
order, which the engine makes fully deterministic, so the same
``(seed, rates)`` spec always produces the identical fault schedule
and therefore identical simulated elapsed times.

Fault model scope
-----------------
- **Disk**: a faulting request costs the per-request overhead (the arm
  moved, no data streamed), invalidates the head position, and raises
  :class:`TransientDiskError`.  :class:`repro.fs.filesystem.FileHandle`
  retries with exponential backoff up to :data:`MAX_RETRIES` times.
- **Network**: only data-plane messages (FETCH / DATA / PIECE /
  PIECE_ACK) are ever dropped -- exactly the tags covered by the
  protocol's retry machinery.  Control-plane messages (schema
  broadcast, completions) may be *delayed* but not dropped; end-to-end
  control reliability would need acks on every hop and is future work.
- **Crashes**: an I/O node listed in ``spec.crashes`` is fail-stop: at
  the given simulated time (relative to the start of each run) its
  server process is killed via :class:`~repro.sim.Interrupt` carrying a
  :class:`NodeCrash`.  The master server (index 0) is assumed reliable,
  as in the paper: the runtime refuses to crash it unless a sharded
  scheduler has another shard master to fail over to.  Recovery lives
  in :mod:`repro.core.recovery`.

Recovery constants
------------------
The retry, backoff and detection timings (:data:`RETRY_TIMEOUT`,
:data:`MAX_RETRIES`, :data:`BACKOFF`, :data:`RETRY_DELAY`,
:data:`MAX_BACKOFF`, :data:`DETECT_TIMEOUT`) and the delay charged to
a delayed message (:data:`MSG_DELAY`) are module constants, not spec
fields: no workload sets them, and each would be one more axis for
every feature-combination sweep to cover.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.counters import COUNTERS

__all__ = [
    "FaultInjector",
    "FaultPlan",
    "FaultRecoveryError",
    "FaultSpec",
    "NodeCrash",
    "TransientDiskError",
]


class TransientDiskError(OSError):
    """A disk request failed transiently; retrying may succeed."""


class NodeCrash(Exception):
    """Carried as the :class:`~repro.sim.Interrupt` cause when an I/O
    node is killed by the fault injector."""

    def __init__(self, server_index: int, at: float) -> None:
        super().__init__(f"I/O node {server_index} crashed at t={at:.6f}")
        self.server_index = server_index
        self.at = at


class FaultRecoveryError(RuntimeError):
    """Recovery gave up: the retry budget is exhausted, data is
    unreachable (it lived on a crashed node), or a survivor died while
    recovering."""


#: extra propagation latency charged to a delayed message, seconds.
MSG_DELAY = 2e-3
#: seconds a server waits for one piece exchange (FETCH->DATA or
#: PIECE->ACK) before retrying; multiplied by :data:`BACKOFF` per
#: attempt and clamped at :data:`MAX_BACKOFF`.
RETRY_TIMEOUT = 0.5
#: bounded retry budget shared by disk requests and piece exchanges.
MAX_RETRIES = 8
#: exponential backoff factor applied per attempt.
BACKOFF = 2.0
#: base backoff sleep before a disk retry, seconds.
RETRY_DELAY = 1e-3
#: how often a (shard) master or an op's master client polls the
#: failure detector while waiting on a possibly dead peer, seconds.
DETECT_TIMEOUT = 0.5
#: ceiling on any single backed-off timeout or sleep, seconds.  Without
#: it ``RETRY_TIMEOUT * BACKOFF ** attempt`` grows without bound --
#: attempt 8 would wait 128 s of simulated time on one exchange, which
#: the failure detector (and any human reading the trace) misreads as
#: a crash.
MAX_BACKOFF = 8.0


@dataclass(frozen=True)
class FaultSpec:
    """Seeded fault rates and the crash plan they run under.

    Attach one to :class:`repro.core.config.PandaConfig` via
    ``PandaConfig(faults=FaultSpec(seed=7, msg_drop_rate=0.05))``.
    ``faults=None`` (the default) leaves every fault-free code path --
    and therefore every simulated timing -- untouched.  The recovery
    budget that survives the faults is the module's constants; the
    runtime checks the crash plan against its own shape
    (``PandaRuntime.check_crash_plan``).
    """

    #: PRNG seed; the whole fault schedule is a pure function of
    #: ``(seed, rates)`` and the (deterministic) simulation order.
    seed: int = 0
    #: probability that one disk request fails transiently.
    disk_fault_rate: float = 0.0
    #: probability that one data-plane message is dropped in flight.
    msg_drop_rate: float = 0.0
    #: probability that one message is delayed by :data:`MSG_DELAY`.
    msg_delay_rate: float = 0.0
    #: fail-stop I/O-node crashes: ``(server_index, sim_time)`` pairs,
    #: times relative to the start of each run.
    crashes: Tuple[Tuple[int, float], ...] = ()

    def __post_init__(self) -> None:
        for name in ("disk_fault_rate", "msg_drop_rate", "msg_delay_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        crashes = tuple((int(i), float(t)) for i, t in self.crashes)
        object.__setattr__(self, "crashes", crashes)


class FaultPlan:
    """The deterministic fault schedule implied by a :class:`FaultSpec`.

    Decisions are drawn lazily, one named PRNG stream per fault site,
    so the n-th decision at a site depends only on ``(seed, site, n)``.
    """

    def __init__(self, spec: FaultSpec) -> None:
        self.spec = spec
        self._streams: Dict[Tuple[object, ...], random.Random] = {}

    def _draw(self, *stream: object) -> float:
        rng = self._streams.get(stream)
        if rng is None:
            # str seeding hashes via sha512 (seed version 2): stable
            # across processes, unlike the salted builtin hash()
            rng = random.Random(f"{self.spec.seed}:" + "/".join(map(str, stream)))
            self._streams[stream] = rng
        return rng.random()

    def disk_fault(self, node: str) -> bool:
        rate = self.spec.disk_fault_rate
        return rate > 0 and self._draw("disk", node) < rate

    def drop(self, src: int, dst: int) -> bool:
        rate = self.spec.msg_drop_rate
        return rate > 0 and self._draw("drop", src, dst) < rate

    def delay(self, src: int, dst: int) -> float:
        rate = self.spec.msg_delay_rate
        if rate > 0 and self._draw("delay", src, dst) < rate:
            return MSG_DELAY
        return 0.0


class FaultInjector:
    """Runtime binding of a :class:`FaultPlan`: makes the decisions,
    counts them (:data:`repro.counters.COUNTERS`) and emits them on the
    run's :class:`~repro.sim.trace.Trace` so degraded-mode behaviour is
    measurable."""

    def __init__(self, spec: FaultSpec, sim, trace=None) -> None:
        self.spec = spec
        self.plan = FaultPlan(spec)
        self.sim = sim
        self.trace = trace
        #: message tags eligible for dropping; configured by the runtime
        #: to exactly the tags the protocol's retry machinery covers.
        self.droppable_tags: frozenset = frozenset()

    def _emit(self, kind: str, **detail) -> None:
        if self.trace is not None:
            self.trace.emit(self.sim.now, "faults", kind, **detail)

    # -- network hook ------------------------------------------------------
    def message_fault(self, src: int, dst: int, tag: int,
                      nbytes: int) -> Tuple[bool, float]:
        """Decide one delivery's fate: ``(dropped, extra_delay)``."""
        if tag in self.droppable_tags and self.plan.drop(src, dst):
            COUNTERS.faults_injected += 1
            COUNTERS.messages_dropped += 1
            self._emit("fault_msg_drop", src=src, dst=dst, tag=tag, nbytes=nbytes)
            return True, 0.0
        extra = self.plan.delay(src, dst)
        if extra > 0:
            COUNTERS.faults_injected += 1
            COUNTERS.messages_delayed += 1
            self._emit("fault_msg_delay", src=src, dst=dst, tag=tag,
                       nbytes=nbytes, delay=extra)
        return False, extra

    # -- disk hook ---------------------------------------------------------
    def disk_fault(self, node: str) -> bool:
        """Decide whether the next request on ``node`` faults."""
        if self.plan.disk_fault(node):
            COUNTERS.faults_injected += 1
            COUNTERS.disk_faults += 1
            self._emit("fault_disk", node=node)
            return True
        return False

    # -- bookkeeping from the recovery machinery ---------------------------
    def note_retry(self, what: str, **detail) -> None:
        COUNTERS.fault_retries += 1
        self._emit("fault_retry", what=what, **detail)

    def note_crash(self, server_index: int) -> None:
        COUNTERS.faults_injected += 1
        COUNTERS.server_crashes += 1
        self._emit("fault_crash", server=server_index)

    def note_recovery(self, mode: str, dataset: str, crashed: int,
                      survivors: Tuple[int, ...], nbytes: int) -> None:
        """``mode`` is "upfront" (crash known before the op started) or
        "midop" (the failure detector fired during the gather)."""
        COUNTERS.recoveries += 1
        self._emit("recovery", mode=mode, dataset=dataset, crashed=crashed,
                   survivors=survivors, nbytes=nbytes)

    def backoff_timeout(self, attempt: int) -> float:
        """Exchange timeout for the given (0-based) attempt, clamped at
        :data:`MAX_BACKOFF` so a deep retry budget cannot stall a
        single exchange for minutes of simulated time."""
        return min(RETRY_TIMEOUT * (BACKOFF ** attempt), MAX_BACKOFF)

    def backoff_delay(self, attempt: int) -> float:
        """Backoff sleep before disk retry ``attempt`` (1-based),
        clamped at :data:`MAX_BACKOFF`."""
        return min(RETRY_DELAY * (BACKOFF ** (attempt - 1)), MAX_BACKOFF)
