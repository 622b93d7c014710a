"""Wire protocol of server-directed I/O: message payloads and tags.

The paper's protocol, stated as message types:

=====================  =======================================  ==========
message                direction                                tag
=====================  =======================================  ==========
CollectiveOp           master client -> master server           REQUEST
SchedOp                master server -> other servers           SCHEMA [1]_
FetchRequest           server -> client            (write)      FETCH
PieceData              client -> server            (write)      DATA
PieceData              server -> client            (read)       PIECE
server completion      server -> master server                  SERVER_DONE
op completion          master server -> master client           OP_DONE
op completion          master client -> other clients           CLIENT_DONE
shutdown               runtime -> servers                       SHUTDOWN
SchedOp                (shard) master -> participant servers    SCHED [1]_
OpRejection            master server -> master client           OP_REJECTED
=====================  =======================================  ==========

.. [1] One admission broadcast, two tags: the server loop's discipline
   picks SCHEMA for the paper's one-op-at-a-time path
   (``config.scheduler is None``) and SCHED under an inter-op
   scheduler.  The payload is the same :class:`~repro.core.scheduler.
   SchedOp` either way.

Everything except PieceData is control-plane (256-byte wire size);
PieceData charges its payload bytes.

Op-id tagging: every data-plane payload (FetchRequest, PieceData,
PieceAck) carries the originating op's ``op_id`` and the server-side
``subchunk_seq``, and receivers match on both -- so once the inter-op
scheduler (SCHED, :mod:`repro.core.scheduler`) puts several collectives
in flight on the same servers, a piece can never be absorbed into the
wrong operation.  Because per-group ``op_id`` counters restart at 0 in
every client group, cross-group completion routing additionally uses
the scheduler's globally unique ``admit_seq`` (:class:`ServerDone`).

Shard routing (``SchedulerConfig.n_shards > 1``): "master server" above
generalizes to *the dataset's owning shard master* -- the REQUEST goes
to the server the consistent-hash ring names for ``op.dataset``
(:class:`~repro.core.scheduler.ShardMap`), that owner broadcasts SCHED
to the op's participant servers, and each participant routes its
SERVER_DONE back to the admitting shard, carried as
:attr:`SchedOp.shard <repro.core.scheduler.SchedOp>` inside the SCHED
payload.  ``admit_seq`` is striped so ``admit_seq % n_shards`` recovers
the admitting shard from a completion alone.  In fault mode RECOVER
carries a ``reply_to`` rank for the same reason (any shard master may
run a mid-op recovery).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from repro.mpi.datatypes import DataBlock
from repro.schema.chunking import DataSchema
from repro.schema.regions import Region

if TYPE_CHECKING:  # plan.py imports this module
    from repro.core.plan import PieceRow

__all__ = [
    "ArraySpec",
    "CollectiveOp",
    "FetchRequest",
    "OpRejected",
    "OpRejection",
    "PieceAck",
    "PieceData",
    "ServerDone",
    "Tags",
]


class Tags:
    """Message tag namespace."""

    REQUEST = 10
    SCHEMA = 11
    FETCH = 12
    DATA = 13
    PIECE = 14
    SERVER_DONE = 15
    OP_DONE = 16
    CLIENT_DONE = 17
    SHUTDOWN = 18
    #: fault mode only -- client acknowledges a PIECE so the server's
    #: reliable scatter can retry dropped deliveries.
    PIECE_ACK = 19
    #: fault mode only -- master server hands a surviving server part of
    #: a crashed server's plan (see :mod:`repro.core.recovery`).
    RECOVER = 20
    #: scheduled mode only -- master server broadcasts an admitted op
    #: plus scheduling metadata (see :mod:`repro.core.scheduler`);
    #: replaces SCHEMA when an inter-op scheduler is configured.
    SCHED = 21
    #: ``slo`` policy only -- the owning shard master refuses to enqueue
    #: a REQUEST from a tenant whose latency budget is shed-exhausted
    #: and answers the master client with an :class:`OpRejection`
    #: instead of an eventual OP_DONE.  Client-visible by design: the
    #: master client re-broadcasts the rejection to its group via
    #: CLIENT_DONE and every rank raises :class:`OpRejected`.
    OP_REJECTED = 22


@dataclass(frozen=True)
class ArraySpec:
    """Everything a server needs to know about one array in a collective
    operation: the marshalled form of an API-level :class:`~repro.core.
    api.Array`."""

    name: str
    shape: Tuple[int, ...]
    itemsize: int
    dtype: str  #: numpy dtype string ("<f8"); informational in virtual mode
    memory_schema: DataSchema
    disk_schema: DataSchema
    #: per-array sub-chunk size override (the paper's future-work
    #: "explicitly request sub-chunked schemas"); None uses the
    #: library-wide :attr:`PandaConfig.sub_chunk_bytes`.
    sub_chunk_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        if self.itemsize < 1:
            raise ValueError("itemsize must be >= 1")
        if self.sub_chunk_bytes is not None and self.sub_chunk_bytes < 1:
            raise ValueError("sub_chunk_bytes must be >= 1")
        if tuple(self.memory_schema.shape) != tuple(self.shape):
            raise ValueError(
                f"memory schema shape {self.memory_schema.shape} != array "
                f"shape {self.shape}"
            )
        if tuple(self.disk_schema.shape) != tuple(self.shape):
            raise ValueError(
                f"disk schema shape {self.disk_schema.shape} != array "
                f"shape {self.shape}"
            )
        # specs key the plan, cost-walk and .schema memos once per op
        object.__setattr__(self, "_hash", hash((
            self.name, self.shape, self.itemsize, self.dtype,
            self.memory_schema, self.disk_schema, self.sub_chunk_bytes,
        )))

    def __hash__(self) -> int:  # cached; dataclass keeps explicit hashes
        return self._hash

    @property
    def nbytes(self) -> int:
        n = self.itemsize
        for s in self.shape:
            n *= s
        return n

    @property
    def np_dtype(self) -> np.dtype:
        return np.dtype(self.dtype)


@dataclass(frozen=True)
class CollectiveOp:
    """The very-high-level description of one collective I/O operation:
    what the master client sends to the master server, and all a server
    needs to form its plan.

    ``client_ranks`` lists the participating compute ranks in memory-
    mesh order (position *i* of the mesh is held by ``client_ranks[i]``)
    -- the collective's communicator.  Its first entry is the op's
    master client.  When several applications share a set of I/O nodes
    (the paper's future-work scenario), each op names its own client
    group here.
    """

    op_id: int
    kind: str  #: "write" or "read"
    dataset: str  #: logical dataset name; determines server file names
    arrays: Tuple[ArraySpec, ...]
    client_ranks: Tuple[int, ...] = ()
    #: fair-share weight when an inter-op scheduler is configured: an op
    #: with priority 2 receives twice the service of a priority-1 op
    #: while both are in flight.  Ignored by the unscheduled path.
    priority: int = 1

    def __post_init__(self) -> None:
        if self.kind not in ("write", "read"):
            raise ValueError(f"bad collective op kind {self.kind!r}")
        if not self.arrays:
            raise ValueError("collective op needs at least one array")
        names = [a.name for a in self.arrays]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate array names in op: {names}")
        object.__setattr__(self, "client_ranks", tuple(self.client_ranks))
        if len(set(self.client_ranks)) != len(self.client_ranks):
            raise ValueError("duplicate ranks in client group")
        if self.priority < 1:
            raise ValueError(f"op priority must be >= 1, got {self.priority}")

    @property
    def master_client(self) -> int:
        if not self.client_ranks:
            raise ValueError("op has no client group")
        return self.client_ranks[0]

    @property
    def total_bytes(self) -> int:
        return sum(a.nbytes for a in self.arrays)

    def signature(self) -> tuple:
        """Hashable identity used for collective-consistency checking
        across clients."""
        return (
            self.op_id,
            self.kind,
            self.dataset,
            self.client_ranks,
            self.priority,
            tuple(
                (a.name, a.shape, a.itemsize, a.memory_schema, a.disk_schema)
                for a in self.arrays
            ),
        )


@dataclass(frozen=True)
class FetchRequest:
    """Server asks a client for a logical piece of a sub-chunk (write
    path).  Regions are global, so the request is meaningful regardless
    of how the client stores its chunk -- the paper's "logical sub-chunk"
    requests.

    ``row`` is the piece's row of the server's piece table: the region
    plus what the client would otherwise re-derive from it (its run
    count and local slices in the client's chunk).  The row is not on
    the wire -- the message is charged as a control message -- so it
    moves no simulated time."""

    op_id: int
    array_index: int
    row: "PieceRow"
    #: identifies the requesting server's sub-chunk (diagnostics only;
    #: the protocol needs no reply routing beyond MPI source matching).
    subchunk_seq: int

    @property
    def region(self) -> Region:
        return self.row.region


@dataclass(frozen=True)
class PieceData:
    """A region-shaped piece of array data in flight (both directions).
    ``row`` is the piece's piece-table row, as in :class:`FetchRequest`;
    only the payload bytes are charged on the wire."""

    op_id: int
    array_index: int
    row: "PieceRow"
    block: DataBlock
    subchunk_seq: int = -1

    @property
    def region(self) -> Region:
        return self.row.region

    def __post_init__(self) -> None:
        if self.block.nbytes != self.row.nbytes:
            raise ValueError(
                f"block of {self.block.nbytes}B does not match the "
                f"{self.row.nbytes}B piece {self.region}"
            )


@dataclass(frozen=True)
class PieceAck:
    """Fault mode: a client acknowledges one delivered PIECE (read
    path), naming the exact sub-chunk piece so the server's reliable
    scatter matches the ack to its outstanding delivery."""

    op_id: int
    array_index: int
    region: Region
    subchunk_seq: int


@dataclass(frozen=True)
class ServerDone:
    """A server reports completion of its share of an op.

    ``recovery`` distinguishes the second completion a survivor sends
    after executing a mid-op recovery assignment from its ordinary
    plan completion (the master gathers the two waves separately)."""

    op_id: int
    server_index: int
    bytes_moved: int
    recovery: bool = False
    #: the admitting master's globally unique admission sequence
    #: number.  Per-group ``op_id`` counters all start at 0, so with
    #: several client groups in flight this is what routes a completion
    #: to the right op.  -1 only on a mid-op recovery completion, which
    #: is matched by ``op_id`` inside the recovery's own gather.
    admit_seq: int = -1


@dataclass(frozen=True)
class OpRejection:
    """The ``slo`` policy's load-shed reply (tag OP_REJECTED): the
    owning shard master refused to enqueue the op because the tenant's
    latency budget is shed-exhausted.

    Rejection is deliberately client-visible rather than silent: a shed
    tenant that keeps waiting for OP_DONE would measure exactly the
    unbounded latency the budget exists to prevent, and its failure
    detector would misread the silence as a crashed master.  The master
    client re-broadcasts this payload on CLIENT_DONE so every rank in
    the group raises :class:`OpRejected` at the same point in the
    collective."""

    op_id: int
    dataset: str
    #: tenant key the budget was charged to (the op's master client).
    tenant: int
    #: the tenant's rolling p99 turnaround at rejection time, seconds.
    p99: float
    #: the configured turnaround budget, seconds.
    budget: float
    #: the admitting shard master's index (diagnostics).
    shard: int = 0


class OpRejected(RuntimeError):
    """Raised on every rank of a collective whose REQUEST the ``slo``
    admission policy shed.  Carries the :class:`OpRejection` the shard
    master sent; the op performed no I/O and may be retried later."""

    def __init__(self, rejection: OpRejection) -> None:
        super().__init__(
            f"op {rejection.op_id} on dataset {rejection.dataset!r} "
            f"rejected by shard {rejection.shard}: tenant {rejection.tenant} "
            f"p99 turnaround {rejection.p99:.6f}s is beyond the shed "
            f"threshold over its {rejection.budget:.6f}s budget")
        self.rejection = rejection
