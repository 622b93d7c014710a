"""The Panda server: the I/O-node side of server-directed collective I/O.

One server process per I/O node.  Lifecycle (paper, section 2):

- the **master server** (server index 0) receives the CollectiveOp from
  the master client and relays it to the other servers;
- each server independently forms its :class:`~repro.core.plan.
  ServerPlan` (round-robin chunks, 1 MB sub-chunks) -- "the servers do
  not communicate with one another during plan formation or while array
  data is being gathered or scattered";
- **writes**: per sub-chunk, in file order, the server requests the
  logical pieces from the clients that hold them, reassembles the
  sub-chunk in traditional order, and appends it with one sequential
  file write; after the last sub-chunk, fsync;
- **reads**: per sub-chunk, one sequential file read, then the pieces
  are scattered to the owning clients;
- completion flows server -> master server -> master client.

Every mode runs the one loop in :meth:`PandaServer.run`: admission at
the (shard) master, then plan -> execute one sub-chunk -> credit ->
commit -> detect.  The paper's one-op-at-a-time server is that loop
under the one-slot :class:`_Discipline` (``config.scheduler is None``);
see :mod:`repro.core.scheduler` for the multi-tenant architecture.

Cost model at the server: per-message handling; one staging pass over
every sub-chunk (``copy_time(nbytes, total_piece_runs)``) -- the
assembly/disassembly memcpy between message buffers and the I/O buffer;
and the file-system service time from the disk model.

Pieces move through one loop (:meth:`PandaServer._move_one`) that
posts up to a window of requests before taking a reply: a window of 1
is the paper's blocking request/reply pairs, and ``config.nonblocking``
widens a write's window to all of the sub-chunk's pieces (the paper's
stated future improvement).  A read posts every PIECE and waits for no
reply.  The tags come from the protocol table
(:data:`~repro.core.protocol.MESSAGES`), as does the loop's listen set.

Fault mode (``config.faults`` set -- see :mod:`repro.faults`):

- the admission broadcast's :class:`~repro.core.scheduler.SchedOp`
  carries degraded-mode directives: server indices whose normal plan
  portion must be skipped, plus relocated plan portions
  (:class:`~repro.core.recovery.RecoveryAssignment`) for the survivors
  to execute;
- piece exchanges become *reliable*: the same loop with a window of 1
  (``nonblocking`` is ignored, so one request is outstanding to match
  its reply against), a read waits for each PIECE's PIECE_ACK, and
  every reply wait times out and re-sends the request with bounded
  exponential backoff;
- a (shard) master with completions outstanding blocks with
  :data:`~repro.faults.DETECT_TIMEOUT`; each timeout runs the one
  failure detector (:meth:`PandaServer._sched_detect`).  When an I/O
  node crashed mid-write it re-partitions the dead server's plan over
  the survivors (:func:`~repro.core.recovery.partition_recovery`),
  hands the shares out as RECOVER messages, executes its own share,
  and records the relocations before committing the dataset.  A
  mid-*read* crash loses the crashed node's data and raises
  :class:`~repro.faults.FaultRecoveryError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.core.costmodel import estimate_op
from repro.core.plan import SubchunkPlan, build_server_plan, op_participants
from repro.core.protocol import (
    ALWAYS,
    EXCHANGE_TAGS,
    FAULT,
    MASTER_SERVER,
    PAPER,
    PEER_SERVER,
    SCHEDULED,
    SERVER,
    CollectiveOp,
    FetchRequest,
    OpRejection,
    PieceData,
    ServerDone,
    Tags,
    listen_tags,
)
from repro.core.recovery import (
    RecoverMsg,
    RecoveryAssignment,
    partition_recovery,
)
from repro.core.scheduler import (
    AdmissionQueue,
    OpProgress,
    OpSchedRecord,
    SchedOp,
    SchedulerConfig,
    ServerScheduler,
)
from repro.faults import DETECT_TIMEOUT, MAX_RETRIES, FaultRecoveryError
from repro.fs.filesystem import FileSystem
from repro.obs.slo import SLOTracker
from repro.mpi.comm import Communicator
from repro.mpi.datatypes import DataBlock
from repro.schema.reorganize import inject_region

__all__ = ["PandaServer"]


@dataclass(frozen=True)
class _Discipline:
    """How the one server loop admits and accounts for ops.  Chosen once
    at :meth:`PandaServer.run` entry from ``config.scheduler`` and never
    a user setting: ``None`` selects :data:`_PAPER`, anything else the
    scheduled discipline with all three rules on.

    The paper's master "takes the next REQUEST only after the previous
    op completes" -- admission control with one in-flight slot.  Run as
    ``SchedulerConfig("fifo", max_in_flight=1)`` the loop already moves
    the same bytes in the same order; the paper's *timings* differ from
    that scheduled configuration in exactly three rules at the master
    (``tests/test_scheduler_equivalence.py`` checks the relation: equal
    at one I/O node, one ``request_handling_overhead`` per op beyond)."""

    #: policy, in-flight slots and shards the loop runs under.
    config: SchedulerConfig
    #: the :data:`~repro.core.protocol.MESSAGES` mode it runs in (PAPER
    #: or SCHEDULED): picks the admission broadcast's tag.
    mode: str
    #: rule 1: every control message costs one
    #: ``request_handling_overhead`` as it is taken off the mailbox.
    #: The paper's server charges only an op's arrival (REQUEST /
    #: SCHEMA): its completion gather is free, and serving a RECOVER
    #: costs what the service itself charges.
    charge_control: bool
    #: rule 2: new work is read whenever it can be held -- a REQUEST
    #: while the admission queue has room, a RECOVER at once -- even
    #: between the sub-chunks of a running op.  The paper's server reads
    #: its next REQUEST or RECOVER only when nothing is queued, in
    #: flight or executing.
    eager_requests: bool
    #: rule 3: admission is accounted -- a cost-model estimate per
    #: REQUEST, each op's ``OpSchedRecord`` filed in ``SchedStats``,
    #: ``sched_*`` trace records, phase marks keyed by the globally
    #: unique ``admit_seq`` and ``srv_op_start`` stamped when the plan
    #: is formed.  The paper path keeps none of it: marks are keyed by
    #: the group's ``op_id`` and ``srv_op_start`` is stamped when the
    #: REQUEST / SCHEMA message is read.
    accounted: bool


#: the paper's one-op-at-a-time server (``config.scheduler is None``).
_PAPER = _Discipline(SchedulerConfig("fifo", max_in_flight=1), mode=PAPER,
                     charge_control=False, eager_requests=False,
                     accounted=False)


class PandaServer:
    """One I/O node's Panda server."""

    def __init__(self, runtime, server_index: int, comm: Communicator,
                 fs: FileSystem) -> None:
        self.runtime = runtime
        self.server_index = server_index
        self.comm = comm
        self.fs = fs
        #: fault mode: harden piece exchanges with timeout/retry and run
        #: the (shard) master's blocking wait as a failure detector.
        self._reliable = runtime.injector is not None
        self._src = f"server{server_index}"
        #: the loop's discipline; set by :meth:`run`.
        self._discipline = _PAPER
        #: this server's admission-shard index (it is a shard master),
        #: or None.  Single-master mode: the master is shard 0.  Set by
        #: :meth:`run`.
        self._shard: Optional[int] = None
        self._sharded = False
        #: ``slo`` policy, shard masters only: this shard's per-tenant
        #: latency bookkeeping.  Set by :meth:`run`.
        self._slo_tracker: Optional[SLOTracker] = None
        #: shard master only: admit_seq -> the record of each in-flight
        #: op this shard admitted
        self._completions: Dict[int, OpSchedRecord] = {}
        #: shard master only: this shard's admission queue.  Set by
        #: :meth:`run`.
        self.queue: Optional[AdmissionQueue] = None
        # per-op accounting for the trace/results
        self.bytes_written = 0
        self.bytes_read = 0
        self.subchunks_processed = 0

    def _mark(self, kind: str, /, **detail) -> None:
        """Emit a phase-boundary trace record (no-op when untraced).
        The observability layer (:mod:`repro.obs`) turns these into
        Perfetto tracks and the critical-path phase breakdown."""
        trace = self.runtime.trace
        if trace is not None:
            trace.emit(self.comm.sim.now, self._src, kind, **detail)

    def _mark_op(self, kind: str, sop: SchedOp, /, **detail) -> None:
        """A phase mark of one admitted op.  Accounted disciplines key
        it by the globally unique ``admit_seq``: per-group op_id
        counters all start at 0, and the observability layer pairs
        phase marks per (source, op_id).  The paper path runs one op at
        a time and keeps the group's own ``op_id`` (rule 3)."""
        trace = self.runtime.trace
        if trace is not None:
            key = (sop.admit_seq if self._discipline.accounted
                   else sop.op.op_id)
            trace.emit(self.comm.sim.now, self._src, kind, op_id=key,
                       **detail)

    def _sched_trace(self, kind: str, /, *, demoted: bool = False,
                     **detail) -> None:
        """Emit one ``sched_*`` admission record.  Sharded mode tags it
        with the shard, so the obs layer can break queue depth and
        admission latency out per shard; single-master records stay
        byte-identical."""
        trace = self.runtime.trace
        if trace is not None:
            if self._sharded:
                detail["shard"] = self._shard
            if demoted:
                detail["demoted"] = True
            trace.emit(self.comm.sim.now, "sched", kind, **detail)

    @property
    def rank(self) -> int:
        return self.runtime.server_rank(self.server_index)

    # -- the loop ---------------------------------------------------------------
    def run(self):
        """The server process: admission control at the shard
        master(s), policy-driven sub-chunk interleaving everywhere,
        until shutdown.

        The loop alternates three activities, never blocking while any
        admitted op has work: (1) drain control messages (REQUEST /
        SCHEMA or SCHED / SERVER_DONE / RECOVER / SHUTDOWN) without
        consuming simulated time beyond their handling charge; (2) shard
        masters only: admit eligible queued ops into free in-flight
        slots; (3) execute exactly one sub-chunk of the op the policy
        picks.  Only when none of these make progress does it block on
        the next control message (with the failure-detector timeout in
        fault mode).

        ``config.scheduler is None`` runs the loop under :data:`_PAPER`:
        fifo, one slot, so the policy always picks the one admitted op
        and step (3) walks its sub-chunks in plan order -- the paper's
        server, with its timings bit-for-bit (the golden determinism
        test pins them).

        With ``n_shards > 1`` the first ``n_shards`` servers each run
        the admission side for their consistent-hash slice of the
        datasets (see :class:`~repro.core.scheduler.ShardMap`); every
        server, shard master or not, executes whatever mix of shards'
        ops lands on it."""
        rt = self.runtime
        cfg = rt.config.scheduler
        d = self._discipline = _PAPER if cfg is None else _Discipline(
            cfg, mode=SCHEDULED, charge_control=True, eager_requests=True,
            accounted=True)
        cfg = d.config
        n_shards = cfg.n_shards
        sharded = self._sharded = n_shards > 1
        self._shard = self.server_index if self.server_index < n_shards \
            else None
        sched = ServerScheduler(cfg, self.server_index)
        roles = [SERVER]
        if self._shard is not None:
            roles.append(MASTER_SERVER)
        if self._shard is None or sharded:
            # execution side; shard masters also execute peer shards'
            # ops and (fault mode) serve peer owners' mid-op recovery
            # assignments
            roles.append(PEER_SERVER)
        listen = listen_tags(roles, (ALWAYS, d.mode, FAULT) if self._reliable
                             else (ALWAYS, d.mode))
        completions = self._completions
        queue = None
        if self._shard is not None:
            # interleaved numbering keeps admit_seq globally unique with
            # zero coordination and self-describing: the issuing shard
            # is admit_seq % n_shards
            queue = self.queue = AdmissionQueue(
                cfg.queue_limit, sched.policy,
                seq_start=rt.admit_base + self._shard, seq_step=n_shards)
            if cfg.policy == "slo":
                # per-shard tracker, deliberately un-gossiped: every
                # demote/shed decision is local to this master's loop,
                # so it is deterministic under dispatch perturbation
                self._slo_tracker = SLOTracker(cfg.slo, shard=self._shard)
                rt.slo_trackers[self._shard] = self._slo_tracker
        gate = None
        if not d.eager_requests:
            new_work = (Tags.REQUEST, Tags.RECOVER)
            executing = sched.active

            def gate(m):
                # rule 2: new work waits in the mailbox until this
                # server has nothing queued, in flight or executing
                return m.tag not in new_work or not (
                    queue or completions or executing)
        elif queue is not None:
            def gate(m, _queue=queue):
                # backpressure: while the admission queue is full,
                # REQUESTs stay in the mailbox unread, so the queue
                # (and the memory it pins) never exceeds its bound
                return m.tag != Tags.REQUEST or not _queue.full

        # one predicate for every receive of the loop, built once
        pred = self.comm.match_pred(tags=listen, match=gate)
        detect = (DETECT_TIMEOUT
                  if self._reliable and self._shard is not None else None)
        max_in_flight = cfg.max_in_flight
        abort_orphans = sharded and self._reliable
        shutdown = False
        while True:
            if abort_orphans and rt.crashed_servers:
                # before draining (possibly re-issued) SCHEDs: drop
                # active work admitted by a now-crashed shard master
                self._sched_abort_orphans(sched)
            progressed = False
            while True:
                msg = self.comm.try_recv(match=pred)
                if msg is None:
                    break
                progressed = True
                shutdown |= yield from self._sched_control(msg, sched, queue)
            # an idle turn (nothing queued, or every slot taken) costs
            # two length checks: no generator, no in-flight list
            while queue and len(completions) < max_in_flight:
                if not (yield from self._sched_admit(sched, queue)):
                    break
                progressed = True
            p = sched.pick()
            if p is not None:
                yield from self._sched_step(p, sched)
                continue
            if progressed:
                continue
            if shutdown and sched.idle and not completions and not queue:
                return
            if detect is not None and completions:
                msg = yield from self.comm.recv(match=pred, timeout=detect)
                if msg is None:
                    yield from self._sched_detect()
                    continue
            else:
                msg = yield self.comm.recv_ev(pred)
            shutdown |= yield from self._sched_control(msg, sched, queue)

    # -- one sub-chunk -----------------------------------------------------------
    def _move_one(self, op: CollectiveOp, fh, item: SubchunkPlan):
        """Move one sub-chunk -- the unit the inter-op scheduler
        interleaves at.  A write gathers the sub-chunk's pieces from the
        clients that hold them, assembles it in traditional order and
        appends it with one sequential file write; a read takes it with
        one sequential file read and scatters its pieces.

        One piece loop serves every mode.  It posts up to ``window``
        requests before taking a reply: 1 is the paper's blocking
        request/reply pair, all of the sub-chunk's pieces is
        ``nonblocking``.  A read waits for no reply, except the
        fault-mode PIECE_ACK.  In fault mode the window is 1 and each
        reply wait times out: the request is re-sent with exponential
        backoff, up to :data:`~repro.faults.MAX_RETRIES` times."""
        rt = self.runtime
        comm = self.comm
        real = rt.real_payloads
        trace = rt.trace
        write = op.kind == "write"
        spec = op.arrays[item.array_index]
        pieces = item.pieces
        ranks = op.client_ranks
        op_id = op.op_id
        seq = item.seq
        if write:
            t0 = comm.sim.now if trace is not None else 0.0
            # the sub-chunk is assembled in the file's reserved extent:
            # the pieces tile it exactly, and it becomes readable only
            # when the disk request succeeds
            buf = fh.reserve(item.nbytes)
            if real:
                buf = buf.view(spec.np_dtype).reshape(item.region.shape)
        else:
            if fh.offset != item.file_offset:
                fh.seek(item.file_offset)
            block = yield from fh.read(item.nbytes)
            t0 = comm.sim.now if trace is not None else 0.0
            if real:
                buf = block.array.view(spec.np_dtype).reshape(
                    item.region.shape)
            total_runs = 0
            for row in pieces:
                total_runs += row.runs_sub
            # staging pass: carve the sub-chunk into pieces
            yield comm.copy_s(item.nbytes, max(total_runs, 1))
        tag, reply_tag = EXCHANGE_TAGS[op.kind]
        reliable = self._reliable
        # a reply answers every request, or (non-fault reads) none does
        wait = write or reliable
        if wait:
            n = len(pieces)
            replies = []
            posted = 0
            window = 1 if reliable or not rt.config.nonblocking else n
            if not reliable:
                pred = comm.match_pred(tag=reply_tag, match=lambda m: (
                    m.payload.op_id == op_id
                    and m.payload.subchunk_seq == seq))
        for row in pieces:
            dst = ranks[row.mesh_index]
            if write:
                payload = FetchRequest(op_id, item.array_index, row, seq)
                nbytes = None
            else:
                nbytes = row.nbytes
                pblock = (DataBlock.real(buf[row.sub_slices]) if real
                          else DataBlock.virtual(nbytes))
                payload = PieceData(op_id, item.array_index, row, pblock, seq)
            yield from comm.send(dst, tag, payload, nbytes=nbytes)
            if not wait:
                continue
            posted += 1
            while len(replies) < posted and (
                    posted == n or posted - len(replies) >= window):
                if not reliable:
                    replies.append((yield comm.recv_ev(pred)))
                    continue
                replies.append((yield from self._await_reply(
                    op, item, dst, row, tag, reply_tag, payload, nbytes)))
        if write:
            total_runs = 0
            for msg in replies:
                yield comm.handle_s
                piece = msg.payload
                row = piece.row
                total_runs += row.runs_sub
                if real:
                    inject_region(buf, None, row.region, piece.block.array,
                                  slices=row.sub_slices)
            # staging pass: assemble the sub-chunk in traditional order
            yield comm.copy_s(item.nbytes, max(total_runs, 1))
        if trace is not None:
            now = comm.sim.now
            trace.emit(now, self._src, "srv_gather" if write else
                       "srv_scatter", op_id=op_id, seq=seq,
                       nbytes=item.nbytes, pieces=len(pieces),
                       service=now - t0)
        if write:
            yield from fh.commit(item.nbytes)
        self.subchunks_processed += 1
        return item.nbytes

    def _await_reply(self, op: CollectiveOp, item: SubchunkPlan, dst: int,
                     row, tag: int, reply_tag: int, payload, nbytes):
        """Fault mode: wait for the reply to the request just sent to
        ``dst``, re-sending it after each timeout.  The reply must match
        the request exactly (op, sub-chunk and piece row), so a late
        duplicate from an earlier retry is never taken for the current
        piece; duplicates the *client* sees are idempotent -- a FETCH is
        simply re-answered, a PIECE re-injects the same bytes at the
        same place and is re-acknowledged."""
        injector = self.runtime.injector
        write = op.kind == "write"
        attempt = 0
        while True:
            reply = yield from self.comm.recv(
                src=dst, tag=reply_tag,
                match=lambda m: (m.payload.op_id == op.op_id
                                 and m.payload.subchunk_seq == item.seq
                                 and m.payload.row == row),
                timeout=injector.backoff_timeout(attempt))
            if reply is not None:
                return reply
            attempt += 1
            if attempt > MAX_RETRIES:
                raise FaultRecoveryError(
                    f"server {self.server_index}: no "
                    f"{'data' if write else 'ack'} from rank {dst} for "
                    f"sub-chunk {item.seq} after {MAX_RETRIES} retries")
            injector.note_retry(
                "fetch" if write else "piece", server=self.server_index,
                client=dst, seq=item.seq, attempt=attempt)
            yield from self.comm.send(dst, tag, payload, nbytes=nbytes)

    # -- recovery ---------------------------------------------------------------
    def _execute_assignment(self, op: CollectiveOp, a: RecoveryAssignment):
        """Execute one relocated plan portion against this server's
        recovery file for it (write: gather from the clients and write;
        read: read and scatter).  The items' file offsets are contiguous
        from zero, like an ordinary plan's."""
        write = op.kind == "write"
        fh = self.fs.open(a.file_name, "w" if write else "r")
        moved = 0
        for item in a.items:
            moved += yield from self._move_one(op, fh, item)
        if write:
            yield from fh.fsync()
            self.bytes_written += moved
        else:
            self.bytes_read += moved
        fh.close()
        return moved

    def _serve_recover(self, rmsg: RecoverMsg):
        """Survivor: execute a mid-op recovery assignment handed over
        by a failure-detecting master, then report it separately
        (``recovery=True``) so the issuer's two gathers stay apart.
        The report goes to ``rmsg.reply_to`` when set -- sharded
        admission, where any shard master may run the recovery -- and
        to the master server otherwise."""
        yield self.comm.handle_s
        moved = yield from self._execute_assignment(rmsg.op, rmsg.assignment)
        done = ServerDone(rmsg.op.op_id, self.server_index, moved,
                          recovery=True)
        reply_to = (rmsg.reply_to if rmsg.reply_to >= 0
                    else self.runtime.master_server_rank)
        yield from self.comm.send(reply_to, Tags.SERVER_DONE, done)

    def _fault_directives(self, op: CollectiveOp):
        """Master-only: degraded-mode directives for an op that starts
        with crashes already on the books.

        Writes: skip every crashed server and re-partition its portion
        over the survivors (clients still hold the source data, so the
        whole portion is simply re-gathered).  Reads: route portions
        relocated at write time to the recovery files that hold them;
        data whose only copy is on a crashed node is unreachable.

        Returns ``(skip, recoveries, pending_relocations)``.
        """
        rt = self.runtime
        crashed = set(rt.crashed_servers)
        if op.kind == "write":
            pending: Dict[int, Tuple[RecoveryAssignment, ...]] = {}
            recoveries: List[RecoveryAssignment] = []
            survivors = rt.live_servers()
            for k in sorted(crashed):
                assignments = partition_recovery(op, k, survivors, rt.n_io,
                                                 rt.config, rt.real_payloads)
                if not assignments:
                    continue  # the crashed server's plan was empty
                recoveries.extend(assignments)
                pending[k] = assignments
                rt.injector.note_recovery(
                    "upfront", op.dataset, k,
                    tuple(a.survivor_index for a in assignments),
                    sum(a.nbytes for a in assignments),
                )
            return tuple(sorted(crashed)), tuple(recoveries), pending
        stored = rt.relocations.get(op.dataset, {})
        for k in sorted(crashed):
            if k in stored:
                continue  # relocated at write time: survivors hold it
            plan = build_server_plan(op, k, rt.n_io, rt.config)
            if plan.items:
                raise FaultRecoveryError(
                    f"dataset {op.dataset!r}: server {k}'s portion is on a "
                    "crashed node and was never relocated; the data is "
                    "unreachable until the node is repaired"
                )
        recoveries = []
        for k, assignments in sorted(stored.items()):
            for a in assignments:
                if a.survivor_index in crashed:
                    raise FaultRecoveryError(
                        f"dataset {op.dataset!r}: the recovered portion of "
                        f"server {a.crashed_index} lives on server "
                        f"{a.survivor_index}, which is itself crashed"
                    )
            recoveries.extend(assignments)
        skip = tuple(sorted(set(stored) | crashed))
        return skip, tuple(recoveries), {}

    def _recover_midop(self, op: CollectiveOp, k: int):
        """Failure-detecting master (the single master, or any shard
        master in sharded mode): re-partition crashed server ``k``'s
        plan over the survivors, hand out the shares, execute its own,
        and wait for the survivors' recovery completions."""
        rt = self.runtime
        survivors = rt.live_servers()
        assignments = partition_recovery(op, k, survivors, rt.n_io, rt.config,
                                         rt.real_payloads)
        if not assignments:
            return ()
        rt.injector.note_recovery(
            "midop", op.dataset, k,
            tuple(a.survivor_index for a in assignments),
            sum(a.nbytes for a in assignments),
        )
        waiting: Set[int] = set()
        for a in assignments:
            if a.survivor_index == self.server_index:
                continue
            yield from self.comm.send(
                rt.server_rank(a.survivor_index), Tags.RECOVER,
                RecoverMsg(op, a, reply_to=self.rank),
            )
            waiting.add(a.survivor_index)
        for a in assignments:
            if a.survivor_index == self.server_index:
                yield from self._execute_assignment(op, a)
        while waiting:
            msg = yield from self.comm.recv(
                tag=Tags.SERVER_DONE,
                match=lambda m: (m.payload.op_id == op.op_id
                                 and m.payload.recovery),
                timeout=DETECT_TIMEOUT,
            )
            if msg is not None:
                waiting.discard(msg.payload.server_index)
                continue
            dead = rt.crashed_servers & waiting
            if dead:
                raise FaultRecoveryError(
                    f"server(s) {sorted(dead)} crashed while recovering "
                    f"server {k}'s portion of {op.dataset!r}; double faults "
                    "during recovery are not survivable"
                )
            # Two shard masters recovering concurrently may each hold a
            # recovery assignment addressed to the other; serve any such
            # RECOVER now, or both gathers spin until their peer's is
            # done that never comes.  With a single master no one else
            # sends RECOVER, so this drain is a no-op there.
            rmsg = self.comm.try_recv(tag=Tags.RECOVER)
            if rmsg is not None:
                yield from self._serve_recover(rmsg.payload)
            # other crashes are left for the detector's next scan
        return assignments

    # -- the loop's phases ---------------------------------------------------

    def _sched_control(self, msg, sched: ServerScheduler, queue):
        """Handle one control-plane message; returns True on SHUTDOWN."""
        tag = msg.tag
        if tag == Tags.SHUTDOWN:
            return True
        d = self._discipline
        payload = msg.payload
        # an op's arrival: its REQUEST or its admission broadcast
        arrival = tag != Tags.SERVER_DONE and tag != Tags.RECOVER
        if arrival and not d.accounted:  # rule 3
            op = payload if tag == Tags.REQUEST else payload.op
            self._mark("srv_op_start", op_id=op.op_id, kind=op.kind)
        if arrival or d.charge_control:  # rule 1
            yield self.comm.handle_s
        if tag == Tags.REQUEST:
            yield from self._sched_enqueue(payload, queue)
        elif arrival:  # SCHEMA / SCHED
            yield from self._sched_start(payload, sched)
        elif tag == Tags.SERVER_DONE:
            done: ServerDone = payload
            if done.recovery:
                # recovery completions are consumed inside
                # _recover_midop's own matched gather; one here is a bug
                raise RuntimeError(
                    f"server {self.server_index}: stray recovery completion "
                    f"from server {done.server_index}"
                )
            yield from self._sched_credit(done.admit_seq, done.server_index,
                                          done.bytes_moved)
        else:  # RECOVER (fault mode; sent by a failure-detecting owner)
            yield from self._serve_recover(payload)
        return False

    def _sched_enqueue(self, op: CollectiveOp, queue: AdmissionQueue):
        """Shard master: one REQUEST enters the bounded admission
        queue.

        Under the ``slo`` policy the tenant's budget is consulted
        exactly once, here: a tenant beyond the shed threshold gets an
        immediate OP_REJECTED reply (the REQUEST never enters the
        queue); one merely over budget is enqueued demoted.  Both
        verdicts are fixed at this deterministic instant and never
        re-evaluated, which is what keeps the policy clean under
        panda-mc."""
        rt = self.runtime
        now = self.comm.sim.now
        tracker = self._slo_tracker
        tenant = op.master_client
        if tracker is not None and tracker.should_shed(tenant, now):
            tracker.note_shed(tenant, now)
            rejection = OpRejection(
                op_id=op.op_id, dataset=op.dataset, tenant=tenant,
                p99=tracker.turnaround_p99(tenant) or 0.0,
                budget=tracker.budget.turnaround_p99,
                shard=self._shard,
            )
            self._sched_trace("sched_reject", op_id=op.op_id,
                              dataset=op.dataset, tenant=tenant,
                              p99=rejection.p99, budget=rejection.budget)
            yield from self.comm.send(op.master_client, Tags.OP_REJECTED,
                                      rejection)
            return
        if not self._discipline.accounted:  # rule 3: no cost walk, no filing
            queue.push(op, 0.0, now)
            return
        demoted = tracker is not None and tracker.exhausted(tenant, now)
        est = estimate_op(op, rt.n_io, self.comm.spec, rt.config)
        rec = queue.push(op, est, now, demoted=demoted)
        if demoted:
            tracker.note_demoted(tenant)
        stats = rt.sched_stats
        stats.records[rec.admit_seq] = rec
        stats.queue_peaks[self._shard] = queue.peak
        self._sched_trace("sched_enqueue", admit_seq=rec.admit_seq,
                          op_id=op.op_id, dataset=op.dataset, kind=op.kind,
                          qlen=len(queue), demoted=demoted)

    def _sched_admit(self, sched: ServerScheduler, queue: AdmissionQueue):
        """Shard master, with a free in-flight slot: admit the next
        eligible queued op.  Returns False when none is eligible."""
        rt = self.runtime
        completions = self._completions
        rec = queue.admissible(completions.values())
        if rec is None:
            return False
        queue.remove(rec)
        op = rec.op
        rt.catalog_check(op)
        skip: Tuple[int, ...] = ()
        recoveries: Tuple[RecoveryAssignment, ...] = ()
        pending_reloc: Dict[int, Tuple[RecoveryAssignment, ...]] = {}
        if self._reliable:
            skip, recoveries, pending_reloc = self._fault_directives(op)
        sop = SchedOp(op=op, admit_seq=rec.admit_seq, estimate=rec.estimate,
                      weight=queue.policy.drr_weight(op.priority, rec.demoted),
                      skip=skip, recoveries=recoveries, shard=self._shard)
        # a live server participates unless it is skip-listed with
        # no recovery assignment routed to it: a fully skipped
        # server has nothing to execute and must not be contacted
        # (it may be a repaired node about to be re-crashed by the
        # injector, and its stale on-disk portion is superseded by
        # the survivors' recovery files).  The single master always
        # participates: it runs the completion bookkeeping.  Shard
        # masters join only when the plan gives them work, so an op
        # whose chunks live elsewhere never serializes behind its
        # owner's disk (and creates no empty files there).
        assigned = {a.survivor_index for a in recoveries}
        if self._sharded:
            # from the shape's memoised worker tuple (ascending),
            # so the cost follows the op's width, not the cluster's
            crashed = rt.crashed_servers
            participants = [
                i for i in op_participants(op, rt.n_io, rt.config)
                if i not in crashed and i not in skip]
            if assigned:
                participants = sorted(
                    set(participants) | (assigned - crashed))
        else:
            participants = [i for i in rt.live_servers()
                            if i == self.server_index or i not in skip
                            or i in assigned]
        rec.sched = sop
        rec.owed = set(participants)
        rec.pending_reloc = pending_reloc
        rec.admitted = self.comm.sim.now
        completions[rec.admit_seq] = rec
        if self._discipline.accounted:  # rule 3
            peaks = rt.sched_stats.in_flight_peaks
            peaks[self._shard] = max(peaks[self._shard], len(completions))
            self._sched_trace("sched_admit", admit_seq=rec.admit_seq,
                              op_id=op.op_id, dataset=op.dataset,
                              wait=rec.queue_wait,
                              in_flight=len(completions))
        # bcast_send skips this server's own rank
        yield from self.comm.bcast_send(
            [rt.server_rank(i) for i in participants],
            Tags.SCHEMA if self._discipline.mode == PAPER else Tags.SCHED,
            sop)
        if self.server_index in participants:
            yield from self._sched_start(sop, sched)
        else:
            # this owner has no execution share; with an empty
            # participant set the op may already be completable
            yield from self._sched_maybe_complete(rec)
        return True

    def _sched_start(self, sop: SchedOp, sched: ServerScheduler):
        """Form this server's plan for a newly admitted op and hand it
        to the service policy."""
        op = sop.op
        if self._discipline.accounted:  # rule 3: else stamped on receipt
            self._mark_op("srv_op_start", sop, kind=op.kind)
        yield float(self.comm.spec.plan_formation_overhead)
        rt = self.runtime
        plan = build_server_plan(op, self.server_index, rt.n_io, rt.config,
                                 rt.real_payloads)
        assignments = tuple(a for a in sop.recoveries
                            if a.survivor_index == self.server_index)
        p = sched.start(sop, plan, assignments)
        self._mark_op("srv_plan_ready", sop)
        if p.done:
            # nothing to execute here (directed to skip, no recovery
            # assignments): report completion immediately
            yield from self._sched_finish(p, sched)

    def _sched_step(self, p: OpProgress, sched: ServerScheduler):
        """Execute one sub-chunk of the picked op; segment open /
        fsync / close edges ride the boundary steps."""
        op = p.op
        seg = p.segments[p.seg_index]
        if p.fh is None:
            if op.kind == "write":
                p.fh = self.fs.open(seg.file_name, "w")
            else:
                if not self.fs.exists(seg.file_name):
                    raise FileNotFoundError(
                        f"server {self.server_index}: dataset file "
                        f"{seg.file_name!r} does not exist (dataset "
                        f"{op.dataset!r} was never written?)"
                    )
                p.fh = self.fs.open(seg.file_name, "r")
        if p.item_index < len(seg.items):
            item = seg.items[p.item_index]
            moved = yield from self._move_one(op, p.fh, item)
            if op.kind == "write":
                self.bytes_written += moved
            else:
                self.bytes_read += moved
            p.item_index += 1
            p.moved += moved
            sched.policy.charged(p, item.nbytes)
        if p.item_index >= len(seg.items):
            if op.kind == "write":
                yield from p.fh.fsync()
            p.fh.close()
            p.fh = None
            p.seg_index += 1
            p.item_index = 0
            if p.done:
                yield from self._sched_finish(p, sched)

    def _sched_finish(self, p: OpProgress, sched: ServerScheduler):
        """This server's share of one op is complete: report it to the
        shard master that admitted it (locally, when that is us)."""
        sched.finish(p)
        self._mark_op("srv_io_done", p.sched, moved=p.moved)
        if self._shard is not None and p.sched.shard == self._shard:
            yield from self._sched_credit(p.sched.admit_seq,
                                          self.server_index, p.moved)
        else:
            done = ServerDone(p.op.op_id, self.server_index, p.moved,
                              admit_seq=p.sched.admit_seq)
            yield from self.comm.send(
                self.runtime.server_rank(p.sched.shard),
                Tags.SERVER_DONE, done,
            )
            self._mark_op("srv_op_done", p.sched)

    def _sched_credit(self, admit_seq: int, server_index: int, moved: int):
        """Shard master: record one server's completion of an op this
        shard admitted."""
        rec = self._completions.get(admit_seq)
        if rec is None:
            raise RuntimeError(
                f"server {self.server_index}: completion for unknown "
                f"scheduled op {admit_seq} from server {server_index}"
            )
        rec.owed.discard(server_index)
        rec.credited += moved
        yield from self._sched_maybe_complete(rec)

    def _sched_maybe_complete(self, rec: OpSchedRecord):
        """Shard master: when the last expected server has reported,
        commit the op and notify its master client."""
        if rec.owed:
            return
        rt = self.runtime
        op = rec.op
        sop = rec.sched
        del self._completions[rec.admit_seq]
        if op.kind == "write":
            if self._reliable:
                rt.record_relocations(op.dataset, rec.pending_reloc)
            rt.catalog_commit(op)
        done = ServerDone(op.op_id, self.server_index, rec.credited,
                          admit_seq=rec.admit_seq)
        yield from self.comm.send(op.master_client, Tags.OP_DONE, done)
        now = self.comm.sim.now
        rec.finish(now)
        if self._discipline.accounted:  # rule 3
            if self._slo_tracker is not None:
                # samples arrive in this shard master's deterministic
                # completion order; the tenant key is the op's master
                # client
                self._slo_tracker.record(op.master_client, rec.queue_wait,
                                         rec.turnaround, now)
            self._sched_trace("sched_done", admit_seq=rec.admit_seq,
                              op_id=op.op_id, dataset=op.dataset,
                              moved=rec.moved, service=now - rec.admitted,
                              turnaround=rec.turnaround)
        self._mark_op("srv_op_done", sop)

    def _sched_abort_orphans(self, sched: ServerScheduler) -> None:
        """Sharded fault mode: drop active work admitted by a shard
        master that has since crashed.  The op's master client detects
        the crash after :data:`~repro.faults.DETECT_TIMEOUT` and re-sends
        its REQUEST to the dataset's next live owner on the ring, which
        re-admits and re-broadcasts the op from scratch -- a partially
        executed orphan write is harmless, since the re-run truncates
        and rewrites the same deterministic bytes.  But the orphan itself
        must stop: once the re-run completes, the op's clients move on,
        and the orphan's remaining fetches would wait on ranks that no
        longer serve this op.  Running at every loop iteration -- at
        sub-chunk boundaries, *before* any newly arrived SCHED is
        drained -- guarantees the orphan is gone before the re-issued
        op can start on this server."""
        rt = self.runtime
        dead = [p for p in sched.active.values()
                if p.sched.shard in rt.crashed_servers
                and p.sched.shard != self._shard]
        for p in dead:
            if p.fh is not None:
                p.fh.close()
                p.fh = None
            sched.finish(p)
            self._mark_op("srv_op_aborted", p.sched, shard=p.sched.shard)

    def _sched_detect(self):
        """Shard master, fault mode: the blocking receive timed out.
        Scan the failure detector for crashes affecting any in-flight
        op this shard admitted and recover a mid-write crash.  The
        simulation grants a perfect detector
        (``runtime.crashed_servers``), so a slow server is never
        declared dead -- a timeout alone proves nothing."""
        rt = self.runtime
        for admit_seq in sorted(self._completions):
            rec = self._completions.get(admit_seq)
            if rec is None:
                continue
            op = rec.op
            # a server that finished before dying owes nothing: its
            # file is complete but unreachable until the node is
            # repaired (next run)
            for k in sorted(rt.crashed_servers & rec.owed):
                rec.owed.discard(k)
                if op.kind == "read":
                    plan = build_server_plan(op, k, rt.n_io, rt.config)
                    had_work = (plan.items and k not in rec.sched.skip) or \
                        any(a.survivor_index == k
                            for a in rec.sched.recoveries)
                    if had_work:
                        raise FaultRecoveryError(
                            f"server {k} crashed while scattering dataset "
                            f"{op.dataset!r}; its unsent pieces are "
                            "unreachable"
                        )
                    continue  # trivially empty share: nothing was lost
                assignments = yield from self._recover_midop(op, k)
                if assignments:
                    rec.pending_reloc[k] = assignments
            yield from self._sched_maybe_complete(rec)

