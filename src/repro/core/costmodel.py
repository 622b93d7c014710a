"""Analytic performance prediction for Panda collectives.

The paper's conclusion announces this exact artifact: "In the near
future we plan an extensive performance study of Panda's rearrangement
facilities and are developing a cost model to predict Panda's
performance given an in-memory and on-disk schema."

:func:`predict` walks a collective operation's plans *symbolically* --
no simulation, no event loop -- and accumulates the same costs the
simulated servers and clients would pay:

- per-server: startup handshake share, plan formation, and per
  sub-chunk the request/reply round trips (blocking mode), piece
  transfers, staging copy, and the sequential file-system time;
- per-client pack/unpack costs for non-contiguous pieces, which land on
  the server's critical path in blocking mode;
- the collective's elapsed time is the *slowest server's* total (plus
  startup/completion), because servers proceed independently and the
  op completes when the last one reports.

The prediction is exact for single-stream effects and ignores only
second-order contention (two servers fetching from the same client at
the same instant), so it tracks the simulator within a few percent on
balanced configurations -- which is validated by tests and the
``costmodel`` study of ``benchmarks/bench_paper.py``.  Its use is the paper's: pick a disk
schema for a given memory schema *before* paying for the I/O.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.config import PandaConfig
from repro.core.plan import build_server_plan
from repro.core.protocol import CollectiveOp
from repro.machine import MachineSpec
from repro.memo import Memo
from repro.mpi.message import CONTROL_MESSAGE_BYTES, MESSAGE_HEADER_BYTES

__all__ = ["CostBreakdown", "predict", "predict_arrays", "best_disk_schema",
           "estimate_op"]


@dataclass(frozen=True)
class CostBreakdown:
    """Predicted elapsed time of one collective, with its components.

    All figures are seconds; ``elapsed`` is what
    :class:`~repro.core.runtime.OpRecord` would report.
    """

    kind: str
    n_servers: int
    startup: float
    completion: float
    #: per-server busy time (network + copy + disk), index = server
    server_busy: Tuple[float, ...]
    #: the disk component of the slowest server (diagnostic)
    disk_time: float
    #: the network component of the slowest server (diagnostic)
    network_time: float
    #: the copy/reorganisation component of the slowest server
    copy_time: float

    @property
    def elapsed(self) -> float:
        return self.startup + max(self.server_busy) + self.completion

    @property
    def bottleneck(self) -> str:
        """Which resource dominates the slowest server."""
        parts = {
            "disk": self.disk_time,
            "network": self.network_time,
            "copy": self.copy_time,
        }
        return max(parts, key=parts.get)


def _startup_time(spec: MachineSpec, n_clients: int, n_servers: int) -> float:
    """Master-client request + schema broadcast + plan formation."""
    ctl = CONTROL_MESSAGE_BYTES / spec.network_bandwidth
    t = spec.request_handling_overhead          # client op setup
    t += ctl + spec.network_latency             # request to master server
    t += spec.request_handling_overhead         # master server handling
    t += (n_servers - 1) * ctl                  # schema broadcast (blocking sends)
    t += spec.network_latency if n_servers > 1 else 0.0
    t += spec.request_handling_overhead         # server handling
    t += spec.plan_formation_overhead           # plan formation (parallel)
    return t


def _completion_time(spec: MachineSpec, n_clients: int, n_servers: int) -> float:
    """Server-done gather + op-done + client-done broadcast."""
    ctl = CONTROL_MESSAGE_BYTES / spec.network_bandwidth
    t = (n_servers - 1) * ctl                   # gather at the master server
    t += ctl + spec.network_latency             # op done to master client
    t += (n_clients - 1) * ctl                  # completion broadcast
    t += spec.network_latency if n_clients > 1 else 0.0
    return t


#: what the per-server walk yields: every server's busy time and the
#: slowest server's (disk, net, copy) split.
_Walk = Tuple[Tuple[float, ...], float, float, float]

#: memo of the walk, keyed by everything it reads -- the array specs and
#: op kind, the striping width, the machine constants and the
#: library-wide sub-chunk size (per-array overrides are part of the
#: spec).  Dataset, op id, client group and priority never enter it.
_WALK_CACHE: Dict[tuple, _Walk] = Memo()


def _server_walk(op: CollectiveOp, n_servers: int, spec: MachineSpec,
                 config: PandaConfig) -> _Walk:
    """Walk every server's plan for ``op`` -- once per op *shape*: ops
    that differ only in dataset, id or client group share the result."""
    key = (op.arrays, op.kind, n_servers, spec, config.sub_chunk_bytes)
    walk = _WALK_CACHE.get(key)
    if walk is not None:
        return walk
    write = op.kind == "write"
    busy: List[float] = []
    worst = (0.0, 0.0, 0.0)  # disk, net, copy of the slowest server
    for s in range(n_servers):
        plan = build_server_plan(op, s, n_servers, config)
        disk = net = copy = 0.0
        first_request = True
        for item in plan.items:
            # a fold over the item's piece rows: the same geometry the
            # simulated server and clients read
            total_runs = 0
            for row in item.pieces:
                piece_bytes = row.nbytes
                total_runs += row.runs_sub
                runs_chunk = row.runs_chunk
                if write:
                    # request + reply, blocking: both on the critical path
                    net += CONTROL_MESSAGE_BYTES / spec.network_bandwidth
                    net += spec.network_latency
                    net += spec.request_handling_overhead  # client handling
                    if runs_chunk > 1:
                        copy += spec.copy_time(piece_bytes, runs_chunk)
                    net += (piece_bytes + MESSAGE_HEADER_BYTES) / spec.network_bandwidth
                    net += spec.network_latency
                    net += spec.request_handling_overhead  # server handling
                else:
                    # push: transfer leaves the server at link speed; the
                    # client's unpack overlaps the server's next sub-chunk
                    net += (piece_bytes + MESSAGE_HEADER_BYTES) / spec.network_bandwidth
            copy += spec.copy_time(item.nbytes, max(total_runs, 1))
            t_fs = spec.fs_time(item.nbytes, write=write,
                                sequential=not first_request)
            first_request = False
            disk += t_fs
        busy.append(disk + net + copy)
        if busy[-1] >= sum(worst):
            worst = (disk, net, copy)
    walk = _WALK_CACHE[key] = (tuple(busy), *worst)
    return walk


def predict(
    op: CollectiveOp,
    n_clients: int,
    n_servers: int,
    spec: MachineSpec,
    config: Optional[PandaConfig] = None,
) -> CostBreakdown:
    """Predict the elapsed time of ``op`` on the given deployment."""
    server_busy, disk, net, copy = _server_walk(
        op, n_servers, spec, config or PandaConfig())
    return CostBreakdown(
        kind=op.kind,
        n_servers=n_servers,
        startup=_startup_time(spec, n_clients, n_servers),
        completion=_completion_time(spec, n_clients, n_servers),
        server_busy=server_busy,
        disk_time=disk,
        network_time=net,
        copy_time=copy,
    )


def estimate_op(op: CollectiveOp, n_io: int, spec: MachineSpec,
                config: PandaConfig) -> float:
    """The elapsed-time prediction for one REQUEST: the scheduler's SJF
    admission/service key."""
    return predict(op, len(op.client_ranks), n_io, spec, config).elapsed


def predict_arrays(
    arrays,
    kind: str,
    n_clients: int,
    n_servers: int,
    spec: MachineSpec,
    config: Optional[PandaConfig] = None,
) -> CostBreakdown:
    """Convenience wrapper taking API-level :class:`~repro.core.api.
    Array` objects instead of a marshalled op."""
    op = CollectiveOp(
        op_id=0, kind=kind, dataset="predicted",
        arrays=tuple(a.spec() for a in arrays),
    )
    return predict(op, n_clients, n_servers, spec, config)


def best_disk_schema(
    array,
    candidates,
    kind: str,
    n_clients: int,
    n_servers: int,
    spec: MachineSpec,
    config: Optional[PandaConfig] = None,
) -> Tuple[object, Dict[str, float]]:
    """The cost model's intended use: given an in-memory schema and a
    set of candidate disk schemas (API :class:`Array` objects differing
    only on disk), return the predicted-fastest one and the full
    ranking {array name or index: predicted seconds}."""
    scores: Dict[str, float] = {}
    best = None
    best_t = float("inf")
    for i, cand in enumerate(candidates):
        t = predict_arrays([cand], kind, n_clients, n_servers, spec,
                           config).elapsed
        key = f"{i}:{cand.disk_schema!r}"
        scores[key] = t
        if t < best_t:
            best, best_t = cand, t
    return best, scores
