"""Wire protocol of server-directed I/O: message tags, payloads and the
one table that states who sends each message to whom.

:data:`MESSAGES` is the protocol: one row per tag, naming its payload,
its sender and receiver roles, when it exists and what answers it.
The server loop's and the client's listen sets
(:func:`listen_tags`), the piece exchange's tags
(:data:`EXCHANGE_TAGS`) and the tags the fault injector may drop
(:data:`DROPPABLE`) are read off it, and ``python -m repro lint``
checks every send and receive site in the code against it
(:mod:`repro.analysis.protocol_check`).  The baseline strategies'
protocol (:mod:`repro.baselines`) is in the same table, as the rows
of the BASELINE mode, under roles no Panda module plays.

Everything except PieceData is control-plane (256-byte wire size);
PieceData charges its payload bytes, and so do the baselines'
DAEMON_WRITE, DAEMON_DATA and PERMUTE.

Op-id tagging: every data-plane payload (FetchRequest, PieceData,
PieceAck) carries the originating op's ``op_id`` and the server-side
``subchunk_seq``, so once the inter-op scheduler (SCHED,
:mod:`repro.core.scheduler`) puts several collectives in flight on the
same servers, a piece can never be absorbed into the wrong operation.
Because per-group ``op_id`` counters restart at 0 in every client
group, cross-group completion routing additionally uses the
scheduler's globally unique ``admit_seq`` (:class:`ServerDone`).

Shard routing (``SchedulerConfig.n_shards > 1``): "master server"
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
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, Optional, Tuple

import numpy as np

from repro.mpi.datatypes import DataBlock
from repro.schema.chunking import DataSchema
from repro.schema.regions import Region

if TYPE_CHECKING:  # plan.py imports this module
    from repro.core.plan import PieceRow

__all__ = [
    "ArraySpec",
    "CollectiveOp",
    "DROPPABLE",
    "EXCHANGE_TAGS",
    "FetchRequest",
    "MESSAGES",
    "Message",
    "OpRejected",
    "OpRejection",
    "PieceAck",
    "PieceData",
    "ServerDone",
    "Tags",
    "listen_tags",
]


class Tags:
    """Message tag namespace; :data:`MESSAGES` says what each one is."""

    REQUEST = 10
    SCHEMA = 11
    FETCH = 12
    DATA = 13
    PIECE = 14
    SERVER_DONE = 15
    OP_DONE = 16
    CLIENT_DONE = 17
    SHUTDOWN = 18
    PIECE_ACK = 19
    RECOVER = 20
    SCHED = 21
    OP_REJECTED = 22
    # the baselines (repro.baselines): requests to an I/O daemon, its
    # replies, and two-phase I/O's permutation among compute ranks
    DAEMON_WRITE = 30
    DAEMON_READ = 31
    DAEMON_ACK = 32
    DAEMON_DATA = 33
    DAEMON_FLUSH = 34
    DAEMON_FLUSH_ACK = 35
    DAEMON_SHUTDOWN = 36
    PERMUTE = 37


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


# The per-piece payloads below are slotted and immutable by convention,
# not frozen: frozen construction routes every field through
# object.__setattr__, paid once per message (DESIGN.md section 9).
@dataclass(slots=True)
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
    #: the requesting server's sub-chunk; the DATA reply echoes it and
    #: is matched on it (see the DATA row of :data:`MESSAGES`).
    subchunk_seq: int

    @property
    def region(self) -> Region:
        return self.row.region


@dataclass(slots=True)
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


@dataclass(slots=True)
class PieceAck:
    """Fault mode: a client acknowledges one delivered PIECE (read
    path), echoing the piece's row so the server matches the ack to its
    outstanding delivery.  Like every control message it is charged
    256 bytes on the wire, whatever the row holds."""

    op_id: int
    array_index: int
    row: "PieceRow"
    subchunk_seq: int


@dataclass(slots=True)
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


# -- the protocol table -------------------------------------------------------

#: Roles.  The part before the dot is the module that plays the role
#: (``core/client.py``, ``core/server.py``, ``core/runtime.py``); the
#: part after it narrows the role to the ranks that send or take the
#: message: the master client is its group's first rank and the only
#: one that talks to servers, a *member* is any other rank of the group;
#: a master server is the single master or a shard master, a *peer* is
#: a server another master broadcasts to (every server but the single
#: master, and every shard master when admission is sharded).  The
#: baselines have roles of their own, so no BASELINE row reaches a
#: Panda listen set: a compute rank running a baseline strategy
#: (``baselines/common.py``, ``baselines/two_phase.py``) and the I/O
#: daemon (``baselines/daemon.py``).
CLIENT, MASTER_CLIENT, MEMBER_CLIENT = "client", "client.master", \
    "client.member"
SERVER, MASTER_SERVER, PEER_SERVER = "server", "server.master", \
    "server.peer"
RUNTIME = "runtime"
BASELINE_CLIENT, DAEMON = "baseline", "daemon"

#: When a message exists: always, in fault mode (``config.faults``),
#: under an inter-op scheduler, under the paper's one-op-at-a-time
#: discipline (``config.scheduler is None``), or in a baseline
#: strategy's run (:class:`repro.baselines.BaselineRuntime`).
ALWAYS, FAULT, SCHEDULED, PAPER = "always", "fault", "scheduled", "paper"
BASELINE = "baseline"
MODES = frozenset({ALWAYS, FAULT, SCHEDULED, PAPER, BASELINE})


@dataclass(frozen=True)
class Message:
    """One row of :data:`MESSAGES`: one tag of the wire protocol."""

    tag: int
    #: payload class name (``None``: the message is a bare signal).
    payload: Optional[str]
    sender: str  #: role that sends it
    receiver: str  #: role that takes it
    when: str = ALWAYS
    #: ``"write"`` / ``"read"``: a message of that op kind's piece
    #: exchange, the data plane -- retried by the server, and droppable,
    #: in fault mode.  ``None``: control plane.
    exchange: Optional[str] = None
    #: the tag that answers it, if any.
    reply: Optional[int] = None


MESSAGES: Tuple[Message, ...] = (
    # the one request a client originates: the very-high-level op
    Message(Tags.REQUEST, "CollectiveOp", MASTER_CLIENT, MASTER_SERVER,
            reply=Tags.OP_DONE),
    # SCHEMA and SCHED are one admission broadcast under two tags: the
    # payload is the same SchedOp and the server loop's discipline picks
    # the tag.  They stay two because net_xfer / message trace records
    # carry the tag, and one tag would move the paper path's traces.
    Message(Tags.SCHEMA, "SchedOp", MASTER_SERVER, PEER_SERVER, when=PAPER,
            reply=Tags.SERVER_DONE),
    # server-directed request for one logical piece of a sub-chunk
    Message(Tags.FETCH, "FetchRequest", SERVER, CLIENT, exchange="write",
            reply=Tags.DATA),
    # Replies are matched on (op_id, subchunk_seq) -- with several ops
    # in flight a piece can never be absorbed into the wrong sub-chunk
    # -- and in fault mode also on the sender and the piece row, so a
    # late duplicate from an earlier retry is never taken for the
    # current piece.
    Message(Tags.DATA, "PieceData", CLIENT, SERVER, exchange="write"),
    Message(Tags.PIECE, "PieceData", SERVER, CLIENT, exchange="read",
            reply=Tags.PIECE_ACK),
    Message(Tags.SERVER_DONE, "ServerDone", PEER_SERVER, MASTER_SERVER),
    Message(Tags.OP_DONE, "ServerDone", MASTER_SERVER, MASTER_CLIENT),
    # completion, or the master's re-broadcast of an OP_REJECTED, so
    # every rank of the group raises OpRejected at the same point
    Message(Tags.CLIENT_DONE, "int | OpRejection", MASTER_CLIENT,
            MEMBER_CLIENT),
    Message(Tags.SHUTDOWN, None, RUNTIME, SERVER),
    # matched like DATA: the server's reliable scatter retries a PIECE
    # until its ack arrives
    Message(Tags.PIECE_ACK, "PieceAck", CLIENT, SERVER, when=FAULT,
            exchange="read"),
    # a surviving server's share of a crashed server's plan
    # (repro.core.recovery); answered by a recovery=True SERVER_DONE
    Message(Tags.RECOVER, "RecoverMsg", MASTER_SERVER, PEER_SERVER,
            when=FAULT, reply=Tags.SERVER_DONE),
    # the admission broadcast under an inter-op scheduler: see SCHEMA
    Message(Tags.SCHED, "SchedOp", MASTER_SERVER, PEER_SERVER,
            when=SCHEDULED, reply=Tags.SERVER_DONE),
    # the slo policy's load shed, instead of an eventual OP_DONE
    Message(Tags.OP_REJECTED, "OpRejection", MASTER_SERVER, MASTER_CLIENT,
            when=SCHEDULED),
    # -- the baselines: every request to an I/O daemon has one reply,
    # and the daemon serves requests in arrival order
    Message(Tags.DAEMON_WRITE, "(offset, nbytes, DataBlock)",
            BASELINE_CLIENT, DAEMON, when=BASELINE, reply=Tags.DAEMON_ACK),
    Message(Tags.DAEMON_READ, "(offset, nbytes, None)", BASELINE_CLIENT,
            DAEMON, when=BASELINE, reply=Tags.DAEMON_DATA),
    Message(Tags.DAEMON_ACK, None, DAEMON, BASELINE_CLIENT, when=BASELINE),
    Message(Tags.DAEMON_DATA, "DataBlock", DAEMON, BASELINE_CLIENT,
            when=BASELINE),
    # the end of a write phase: write back the daemon's cache
    Message(Tags.DAEMON_FLUSH, None, BASELINE_CLIENT, DAEMON, when=BASELINE,
            reply=Tags.DAEMON_FLUSH_ACK),
    Message(Tags.DAEMON_FLUSH_ACK, None, DAEMON, BASELINE_CLIENT,
            when=BASELINE),
    Message(Tags.DAEMON_SHUTDOWN, None, BASELINE_CLIENT, DAEMON,
            when=BASELINE),
    # two-phase I/O: one message per (source, destination) pair carries
    # the source's pieces of the destination's share
    Message(Tags.PERMUTE, "list[ndarray] | None", BASELINE_CLIENT,
            BASELINE_CLIENT, when=BASELINE),
)


def listen_tags(roles: Iterable[str], modes: Iterable[str]) -> FrozenSet[int]:
    """The control-plane tags a receive loop playing ``roles`` takes
    while ``modes`` hold.  Data-plane replies are matched per piece
    (:data:`EXCHANGE_TAGS`)."""
    roles, modes = frozenset(roles), frozenset(modes)
    return frozenset(m.tag for m in MESSAGES if m.exchange is None
                     and m.receiver in roles and m.when in modes)


#: op kind -> ``(request, reply)``: the tag a server sends each piece of
#: the op's sub-chunks under, and the tag that answers it.
EXCHANGE_TAGS: Dict[str, Tuple[int, int]] = {
    m.exchange: (m.tag, m.reply) for m in MESSAGES
    if m.exchange is not None and m.reply is not None}

#: the data plane: the only tags the fault injector may drop, since the
#: server's reliable exchange retries them.
DROPPABLE: FrozenSet[int] = frozenset(
    m.tag for m in MESSAGES if m.exchange is not None)
