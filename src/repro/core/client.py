"""The Panda client: the library code linked into every compute node.

Clients are deliberately thin -- the paper's architectural point is
that *servers* direct the data flow.  A client:

1. enters a collective operation (all ranks call with identical
   arguments -- checked);
2. if it is the **master client** (rank 0), sends the very-high-level
   :class:`~repro.core.protocol.CollectiveOp` descriptor to the master
   server -- the only request a client ever originates;
3. services server-directed traffic until told the op is complete:
   *writes*: answers :class:`FetchRequest`\\ s with the logical piece
   of its local chunk, sent as a (possibly strided) view ("the client
   is responsible for any reorganization required to assemble the
   requested sub-chunk");
   *reads*: scatters arriving :class:`PieceData` into its local chunk;
4. the master client, once notified by the master server, broadcasts
   completion to the other clients.

Cost model at the client: per-message protocol handling, plus a
gather/scatter memory copy **only when the piece is non-contiguous** in
the local chunk (a contiguous piece is sent/received in place, as MPI
allows).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.protocol import (
    CLIENT,
    EXCHANGE_TAGS,
    MASTER_CLIENT,
    MEMBER_CLIENT,
    MODES,
    ArraySpec,
    CollectiveOp,
    FetchRequest,
    OpRejected,
    OpRejection,
    PieceAck,
    PieceData,
    Tags,
    listen_tags,
)
from repro.core.scheduler import NoLiveShardError
from repro.faults import DETECT_TIMEOUT, FaultRecoveryError
from repro.mpi.comm import Communicator
from repro.mpi.datatypes import DataBlock
from repro.schema.regions import Region
from repro.schema.reorganize import inject_region

__all__ = ["PandaClient"]

#: is master -> the tags that end a client's serve loop: a master
#: client's OP_DONE or load-shed OP_REJECTED, a member's CLIENT_DONE.
#: A client does not branch on the servers' discipline, so it listens
#: for what its role may be sent in any mode.
_DONE_TAGS = {
    master: listen_tags((CLIENT, MASTER_CLIENT if master else MEMBER_CLIENT),
                        MODES)
    for master in (True, False)}


class PandaClient:
    """One compute node's Panda endpoint.

    ``group_ranks`` is the client's collective group in memory-mesh
    order; it defaults to all compute ranks (one application owning the
    machine).  When several applications share the I/O nodes, each
    application's clients carry their own group.
    """

    def __init__(self, runtime, rank: int, comm: Communicator, state: dict,
                 group_ranks: Optional[Tuple[int, ...]] = None) -> None:
        self.runtime = runtime
        self.rank = rank
        self.comm = comm
        self.group_ranks = (
            tuple(group_ranks) if group_ranks is not None
            else tuple(range(runtime.n_compute))
        )
        if rank not in self.group_ranks:
            raise ValueError(
                f"rank {rank} is not in its own client group {self.group_ranks}"
            )
        #: this rank's memory-mesh position within the group.
        self.group_index = self.group_ranks.index(rank)
        #: fault mode: PIECEs are acknowledged so servers can retry
        #: dropped deliveries (see repro.faults); duplicate PIECEs from
        #: retries are idempotent re-injections.
        self._reliable = runtime.injector is not None
        #: master client only: the server rank the current op's REQUEST
        #: went to -- the dataset's owning shard master.  With sharded
        #: admission in fault mode the completion wait re-checks this
        #: against the ring and re-sends the REQUEST if the owner died.
        self._op_owner_rank = runtime.master_server_rank
        self._src = f"client{rank}"
        #: persistent per-rank state: op serial, group counters, bound data
        self._state = state
        state.setdefault("op_serial", 0)
        state.setdefault("counters", {})
        state.setdefault("checkpoints", {})
        state.setdefault("data", {})

    def _mark(self, kind: str, /, **detail) -> None:
        """Emit an observability trace record (no-op when untraced)."""
        trace = self.runtime.trace
        if trace is not None:
            trace.emit(self.comm.sim.now, self._src, kind, **detail)

    # -- application-facing state ------------------------------------------
    @property
    def is_master(self) -> bool:
        return self.rank == self.group_ranks[0]

    def bind(self, array, data: Optional[np.ndarray] = None) -> Optional[np.ndarray]:
        """Register this rank's local chunk of ``array``.

        In real-payload mode ``data`` must match the chunk's shape and
        dtype (it is allocated when omitted); in virtual mode ``data``
        must be omitted.  Returns the bound ndarray (or None).
        """
        spec = array.spec() if hasattr(array, "spec") else array
        region = self._my_chunk_region(spec)
        if not self.runtime.real_payloads:
            if data is not None:
                raise ValueError("cannot bind real data in virtual-payload mode")
            self._state["data"][spec.name] = None
            if self.runtime.recorder is not None:
                self.runtime.recorder.on_bind(self.rank, spec)
            return None
        if data is None:
            data = np.zeros(region.shape, dtype=spec.np_dtype)
        data = np.asarray(data)
        if data.shape != region.shape:
            raise ValueError(
                f"rank {self.rank}: local data shape {data.shape} != chunk "
                f"shape {region.shape} for array {spec.name!r}"
            )
        if data.dtype != spec.np_dtype:
            raise ValueError(
                f"rank {self.rank}: dtype {data.dtype} != array dtype "
                f"{spec.np_dtype} for {spec.name!r}"
            )
        self._state["data"][spec.name] = data
        recorder = self.runtime.recorder
        if recorder is not None:
            recorder.on_bind(self.rank, spec)
        return data

    def local(self, array) -> Optional[np.ndarray]:
        """This rank's bound chunk of ``array``."""
        name = array.name if hasattr(array, "name") else array
        try:
            return self._state["data"][name]
        except KeyError:
            raise KeyError(
                f"rank {self.rank}: array {name!r} is not bound; call "
                "ctx.bind(array, data) first"
            ) from None

    # -- group service bookkeeping -------------------------------------------
    def next_counter(self, group: str, kind: str) -> int:
        key = (group, kind)
        k = self._state["counters"].get(key, 0)
        self._state["counters"][key] = k + 1
        return k

    def note_checkpoint(self, group: str, dataset: str) -> None:
        self._state["checkpoints"][group] = dataset

    def latest_checkpoint(self, group: str) -> str:
        try:
            return self._state["checkpoints"][group]
        except KeyError:
            raise KeyError(
                f"group {group!r} has no checkpoint to restart from"
            ) from None

    # -- geometry ---------------------------------------------------------
    def _my_chunk_region(self, spec: ArraySpec) -> Region:
        mesh = spec.memory_schema.mesh
        if mesh.size != len(self.group_ranks):
            raise ValueError(
                f"array {spec.name!r} memory mesh has {mesh.size} positions "
                f"but this client group has {len(self.group_ranks)} "
                "compute nodes"
            )
        return spec.memory_schema.chunk(self.group_index).region

    # -- the collective operation -------------------------------------------
    def collective(self, kind: str, specs: Tuple[ArraySpec, ...], dataset: str,
                   priority: int = 1):
        """Process helper: one collective read or write.  Returns this
        rank's :class:`OpRecord` view (op_id, elapsed is finalised by
        the runtime's log).  ``priority`` is the op's fair-share weight
        when an inter-op scheduler is configured (all ranks of the group
        must pass the same value -- consistency-checked)."""
        op = CollectiveOp(
            op_id=self._state["op_serial"], kind=kind, dataset=dataset,
            arrays=tuple(specs), client_ranks=self.group_ranks,
            priority=priority,
        )
        self._state["op_serial"] += 1
        # validate local bindings up front (real mode requires data for
        # every array; also validates mesh-vs-runtime agreement)
        for spec in op.arrays:
            region = self._my_chunk_region(spec)
            if self.runtime.real_payloads and not region.empty:
                if spec.name not in self._state["data"]:
                    raise ValueError(
                        f"rank {self.rank}: array {spec.name!r} not bound "
                        f"before collective {kind}"
                    )
        self.runtime.oplog.enter(self.rank, op, self.comm.sim.now)
        recorder = self.runtime.recorder
        if recorder is not None:
            # the op arrival is a stimulus: capture instant, descriptor
            # and (real-mode writes) the bound payload bytes as of now
            recorder.on_op_enter(self, op)
        self._mark("cli_op_start", op_id=op.op_id, kind=kind)
        # op setup cost on every client
        yield self.comm.handle_s
        if self.is_master:
            # the dataset's owning shard master; identical to
            # master_server_rank when admission is unsharded
            self._op_owner_rank = self.runtime.op_master_rank(op.dataset)
            yield from self.comm.send(
                self._op_owner_rank, Tags.REQUEST, op
            )
        rejection = yield from self._serve(op)
        # master tells the others in its group; everyone leaves.  A
        # rejection rides the same CLIENT_DONE broadcast, so every rank
        # of the group raises OpRejected at the same collective point.
        if self.is_master:
            yield from self.comm.bcast_send(
                self.group_ranks, Tags.CLIENT_DONE,
                rejection if rejection is not None else op.op_id,
            )
        if rejection is not None:
            self._mark("cli_op_rejected", op_id=op.op_id,
                       dataset=op.dataset, tenant=rejection.tenant)
            if recorder is not None:
                # shed ops are stimuli too: replay must raise the same
                # collective OpRejected at the same point
                recorder.on_op_rejected(self.rank, op)
            self.runtime.oplog.reject(op)
            raise OpRejected(rejection)
        self._mark("cli_op_done", op_id=op.op_id, kind=kind)
        self.runtime.oplog.leave(self.rank, op, self.comm.sim.now)
        return op.op_id

    # -- sharded fault mode: owner failover ------------------------------------
    @property
    def _owner_failover(self) -> bool:
        """Master client, sharded admission, fault mode: the completion
        wait must poll the failure detector so a crashed shard master's
        queued/running op can be re-requested from the next live owner
        on the ring."""
        return (self._reliable and self.is_master
                and self.runtime.n_shards > 1)

    def _owner_pred(self, op: CollectiveOp, data_tag: int, done_tags):
        """Failover-mode predicate: server-directed data traffic is
        taken freely, but a completion counts only if it comes from the
        *current* owner (read dynamically -- it changes on failover) for
        the current op.  A late OP_DONE from a master that died right
        after sending it is left unmatched rather than mistaken for the
        re-issued op's completion."""
        def pred(m) -> bool:
            if m.tag == data_tag:
                return True
            return (m.tag in done_tags
                    and m.src == self._op_owner_rank
                    and m.payload.op_id == op.op_id)
        return pred

    def _reroute_request(self, op: CollectiveOp):
        """The completion wait timed out.  If the owner the REQUEST went
        to has since crashed, the ring re-partitions its datasets onto
        the surviving shard masters: re-send the REQUEST to the new
        owner.  Re-admission is safe -- the crashed master's servers
        abort the orphaned run, and a re-run writes the same
        deterministic bytes.  A timeout with the owner still live
        proves nothing (slow is not dead) and changes nothing."""
        rt = self.runtime
        try:
            owner_rank = rt.op_master_rank(op.dataset)
        except NoLiveShardError as dead:
            # Every shard master is gone: there is no owner to re-send
            # the REQUEST to.  Fail the op cleanly (traced, typed)
            # instead of crashing with an unhandled ring lookup error.
            self._mark("cli_no_live_shard", op_id=op.op_id,
                       dataset=op.dataset)
            raise FaultRecoveryError(
                f"op {op.op_id} on dataset {op.dataset!r} cannot be "
                "re-requested: every shard master has crashed"
            ) from dead
        if owner_rank == self._op_owner_rank:
            return
        rt.injector.note_retry(
            "request", dataset=op.dataset, op_id=op.op_id,
            owner_rank=owner_rank,
        )
        self._mark("cli_request_retry", op_id=op.op_id,
                   owner_rank=owner_rank)
        self._op_owner_rank = owner_rank
        yield from self.comm.send(owner_rank, Tags.REQUEST, op)

    # -- the serve loop: answer fetches (write) / absorb pieces (read) ---------
    def _serve(self, op: CollectiveOp):
        """Service server-directed traffic for ``op`` until told it is
        complete: a write op's FETCH requests (answered with DATA), a
        read op's PIECEs (acknowledged with PIECE_ACK in fault mode).
        Returns the load-shed :class:`OpRejection`, or None."""
        write = op.kind == "write"
        data_tag, reply_tag = EXCHANGE_TAGS[op.kind]
        on_message = self._answer_fetch if write else self._absorb_piece
        done_tags = _DONE_TAGS[self.is_master]
        trace = self.runtime.trace
        # loop-invariant hoists: the predicate, and this rank's chunk
        # region per array -- both otherwise rebuilt per message
        pred = self.comm.match_pred(tags=done_tags | {data_tag})
        failover = self._owner_failover
        if failover:
            pred = self._owner_pred(op, data_tag, done_tags)
        while True:
            if failover:
                msg = yield from self.comm.recv(match=pred,
                                                timeout=DETECT_TIMEOUT)
                if msg is None:
                    yield from self._reroute_request(op)
                    continue
            else:
                msg = yield self.comm.recv_ev(pred)
            if msg.tag != data_tag:
                # the op is over: a rejection comes as the master's
                # OP_REJECTED, or as its CLIENT_DONE re-broadcast
                payload = msg.payload
                return payload if isinstance(payload, OpRejection) else None
            body = msg.payload  # FetchRequest or PieceData
            if body.op_id != op.op_id:
                if self._reliable and body.op_id < op.op_id:
                    # late duplicate from a retried exchange of an op
                    # that already completed: no server waits for it
                    continue
                raise RuntimeError(
                    f"rank {self.rank}: {'fetch' if write else 'piece'} for "
                    f"op {body.op_id} during op {op.op_id}"
                )
            t0 = self.comm.sim.now if trace is not None else 0.0
            yield self.comm.handle_s
            spec = op.arrays[body.array_index]
            row = body.row
            nbytes = row.nbytes
            if row.runs_chunk > 1:
                # strided gather into a send buffer / scatter out of
                # the receive buffer
                yield self.comm.copy_s(nbytes, row.runs_chunk)
            reply = on_message(op, spec, body, nbytes)
            if reply is not None:
                yield from self.comm.send(msg.src, reply_tag, reply,
                                          nbytes=nbytes if write else None)
            if trace is not None:
                self._mark("cli_serve", op_id=op.op_id,
                           kind="fetch" if write else "piece",
                           nbytes=nbytes, service=self.comm.sim.now - t0)

    def _answer_fetch(self, op: CollectiveOp, spec: ArraySpec,
                      req: FetchRequest, nbytes: int) -> PieceData:
        """Write path: the requested piece, a view of the local chunk,
        as the DATA reply; the server's gather is its one copy."""
        row = req.row
        if self.runtime.real_payloads:
            block = DataBlock.real(self.local(spec.name)[row.chunk_slices])
        else:
            block = DataBlock.virtual(nbytes)
        return PieceData(op.op_id, req.array_index, row, block,
                         req.subchunk_seq)

    def _absorb_piece(self, op: CollectiveOp, spec: ArraySpec,
                      piece: PieceData, nbytes: int) -> Optional[PieceAck]:
        """Read path: scatter an arriving piece into the local chunk;
        in fault mode, the PIECE_ACK reply."""
        if self.runtime.real_payloads:
            row = piece.row
            inject_region(self.local(spec.name), None, row.region,
                          piece.block.array, slices=row.chunk_slices)
        if self._reliable:
            return PieceAck(op.op_id, piece.array_index, piece.row,
                            piece.subchunk_seq)
        return None
