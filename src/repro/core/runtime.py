"""The Panda runtime: wiring applications, clients and servers onto a
simulated machine.

:class:`PandaRuntime` owns the simulator, the network (compute ranks
``0..C-1``, server ranks ``C..C+S-1``), one file system per I/O node,
and the dataset catalog (the ``.schema`` files of the paper's Figure 2).
``run(app)`` executes an SPMD application -- a generator function
``app(ctx)`` instantiated once per compute rank -- to completion,
then shuts the servers down and returns a :class:`RunResult`.

The runtime may be ``run`` several times; file systems and dataset
catalog persist across runs (so one run can write a checkpoint and a
later run can restart from it), as do per-rank group counters.  A
failed run leaves it reusable: the run is torn down as a whole
(:func:`run_supervised`), and the next run starts every group at one
op serial with empty client and server mailboxes.

Timing methodology follows the paper: "The elapsed time is the maximum
time spent by any compute node on the collective i/o request" --
:class:`OpRecord` captures per-op enter/leave times of every rank.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Callable, Dict, Generator, Iterable, List,
                    Optional, Tuple)

if TYPE_CHECKING:
    from repro.obs.slo import SLOTracker

from repro.core.client import PandaClient
from repro.core.config import PandaConfig
from repro.counters import COUNTERS
from repro.core.protocol import DROPPABLE, ArraySpec, CollectiveOp, Tags
from repro.core.scheduler import SchedStats
from repro.faults import FaultInjector, NodeCrash
from repro.fs.filesystem import FileSystem
from repro.machine import NAS_SP2, MachineSpec
from repro.memo import Memo
from repro.mpi.network import Network
from repro.sim import Interrupt, Process, Simulator
from repro.sim.trace import Trace

__all__ = ["PandaRuntime", "ClientContext", "RunResult", "OpRecord", "OpLog",
           "RunAborted", "run_supervised"]


@dataclass
class OpRecord:
    """One collective operation, as observed across all clients."""

    op_id: int
    kind: str
    dataset: str
    total_bytes: int
    n_arrays: int
    enters: Dict[int, float] = field(default_factory=dict)
    leaves: Dict[int, float] = field(default_factory=dict)
    signature: Optional[tuple] = None

    @property
    def start(self) -> float:
        return min(self.enters.values())

    @property
    def end(self) -> float:
        return max(self.leaves.values())

    @property
    def elapsed(self) -> float:
        """The paper's elapsed time: max time spent by any compute node."""
        return self.end - self.start

    @property
    def throughput(self) -> float:
        """Aggregate bytes/second over the collective."""
        return self.total_bytes / self.elapsed if self.elapsed > 0 else float("inf")


class OpLog:
    """Collects OpRecords and enforces SPMD consistency.

    Records are keyed by (client group, op id), so concurrent
    applications sharing the I/O nodes each get their own op stream.
    """

    def __init__(self) -> None:
        self.records: Dict[tuple, OpRecord] = {}

    @staticmethod
    def _key(op: CollectiveOp) -> tuple:
        return (op.client_ranks, op.op_id)

    def enter(self, rank: int, op: CollectiveOp, now: float,
              schema_file: Optional[str]) -> None:
        rec = self.records.get(self._key(op))
        if rec is None:
            rec = OpRecord(
                op_id=op.op_id, kind=op.kind, dataset=op.dataset,
                total_bytes=op.total_bytes, n_arrays=len(op.arrays),
                signature=op.signature(),
            )
            self.records[self._key(op)] = rec
        elif rec.signature != op.signature():
            raise RuntimeError(
                f"SPMD violation: rank {rank} entered collective "
                f"{op.op_id} with a different signature"
            )
        if rank in rec.enters:
            raise RuntimeError(f"rank {rank} entered op {op.op_id} twice")
        rec.enters[rank] = now

    def leave(self, rank: int, op: CollectiveOp, now: float) -> None:
        self.records[self._key(op)].leaves[rank] = now

    def reject(self, op: CollectiveOp) -> None:
        """Drop a rejected op's record (idempotent: every rank of the
        group calls this as it raises
        :class:`~repro.core.protocol.OpRejected`).  The op performed no
        I/O, so it must not appear in the run's op stream -- and a
        later retry re-enters under a fresh op id."""
        self.records.pop(self._key(op), None)

    def finished(self) -> List[OpRecord]:
        return [r for _, r in sorted(self.records.items())
                if len(r.leaves) == len(r.enters) and r.enters]


@dataclass
class ClientContext:
    """What an application generator receives, one per compute rank."""

    rank: int
    runtime: "PandaRuntime"
    panda: PandaClient

    @property
    def sim(self) -> Simulator:
        return self.runtime.sim

    @property
    def comm(self):
        return self.panda.comm

    @property
    def n_compute(self) -> int:
        return self.runtime.n_compute

    @property
    def group_ranks(self):
        """This application's client group (== all ranks unless running
        partitioned)."""
        return self.panda.group_ranks

    @property
    def group_index(self) -> int:
        """This rank's memory-mesh position within its group."""
        return self.panda.group_index

    def bind(self, array, data=None):
        """Register this rank's local chunk of ``array`` (see
        :meth:`PandaClient.bind`)."""
        return self.panda.bind(array, data)

    def local(self, array):
        return self.panda.local(array)

    def compute(self, seconds: float):
        """Model application computation time between I/O calls:
        ``yield from ctx.compute(dt)``."""
        return self.comm.compute(seconds)


@dataclass
class RunResult:
    """Outcome of one :meth:`PandaRuntime.run`."""

    ops: List[OpRecord]
    elapsed: float
    trace: Optional[Trace]
    runtime: "PandaRuntime"
    #: this run's slice of the process-wide perf counters (see
    #: :mod:`repro.counters`): events scheduled, bytes copied,
    #: plan/geometry cache hits.  Wall-clock diagnostics only -- no
    #: simulated time depends on them.
    counters: Dict[str, int] = field(default_factory=dict)

    def op(self, index: int = -1) -> OpRecord:
        return self.ops[index]

    @property
    def total_bytes(self) -> int:
        return sum(o.total_bytes for o in self.ops)

    def describe(self) -> str:
        """A human-readable run summary: per-op timings plus resource
        utilization (see :mod:`repro.bench.stats`)."""
        from repro.bench.stats import utilization
        from repro.machine import MB

        lines = [
            f"{len(self.ops)} collective op(s), "
            f"{self.total_bytes / MB:.2f} MB moved:"
        ]
        for o in self.ops:
            lines.append(
                f"  {o.kind:5s} {o.dataset:24s} {o.total_bytes / MB:8.2f} MB "
                f"in {o.elapsed:8.3f} s = {o.throughput / MB:7.2f} MB/s"
            )
        lines.append(utilization(self.runtime).summary())
        if self.runtime.sched_stats is not None:
            lines.append(self.runtime.sched_stats.summary())
        if self.runtime.slo_trackers:
            from repro.obs.slo import summarize_slo

            lines.append(summarize_slo(self.runtime.slo_trackers))
        if self.trace is not None and self.elapsed > 0:
            from repro.obs.critical_path import analyze

            t_end = self.runtime.sim.now
            report = analyze(self.trace, t0=t_end - self.elapsed, t_end=t_end)
            lines.append(report.verdict_line())
        if self.counters:
            c = self.counters
            plan = f"{c['plan_cache_hits']}/{c['plan_cache_hits'] + c['plan_cache_misses']}"
            geom = f"{c['geom_cache_hits']}/{c['geom_cache_hits'] + c['geom_cache_misses']}"
            lines.append(
                f"engine: {c['events_scheduled']} events scheduled "
                f"({c['events_fastpath']} fast-path), "
                f"{c['bytes_copied'] / MB:.2f} MB copied, "
                f"plan cache {plan} hit, geometry cache {geom} hit"
            )
            if c.get("faults_injected"):
                lines.append(
                    f"faults: {c['faults_injected']} injected "
                    f"({c['messages_dropped']} drops, "
                    f"{c['messages_delayed']} delays, "
                    f"{c['disk_faults']} disk, "
                    f"{c['server_crashes']} crash(es)); "
                    f"{c['fault_retries']} retries, "
                    f"{c['recoveries']} plan recoveries"
                )
        return "\n".join(lines)


#: memo of the shape part of a ``.schema`` descriptor (see
#: :func:`_schema_tail`), keyed by everything it serialises.
_SCHEMA_TAILS: Dict[tuple, str] = Memo()


def _schema_tail(arrays: Tuple[ArraySpec, ...], n_servers: int,
                 sub_chunk_bytes: int) -> str:
    """Everything of a dataset's ``.schema`` text after the leading
    ``"dataset"`` member: ``json.dumps(desc, indent=1)`` of the members
    that depend only on the op's shape, minus the opening brace.  The
    pure-Python ``indent=`` encoder runs once per shape; a commit
    splices the dataset name in front."""
    key = (arrays, n_servers, sub_chunk_bytes)
    tail = _SCHEMA_TAILS.get(key)
    if tail is None:
        tail = json.dumps({
            "n_servers": n_servers,
            "sub_chunk_bytes": sub_chunk_bytes,
            "arrays": [
                {
                    "name": a.name,
                    "shape": list(a.shape),
                    "itemsize": a.itemsize,
                    "dtype": a.dtype,
                    "disk_schema": a.disk_schema.describe(),
                }
                for a in arrays
            ],
        }, indent=1)[1:]
        _SCHEMA_TAILS[key] = tail
    return tail


class RunAborted(Exception):
    """The cause of the :class:`~repro.sim.Interrupt` a run's teardown
    throws into every live process: client ``rank`` failed with
    ``exc``, which the run raises as its root cause."""

    def __init__(self, rank: int, exc: BaseException) -> None:
        super().__init__(f"run aborted: rank {rank} failed with {exc!r}")
        self.rank = rank
        self.exc = exc


def _stop(proc: Process, cause: object) -> None:
    """Interrupt ``proc`` with ``cause``.  The failure is expected:
    observe it so the engine does not abort the run with "unhandled
    failure in process"."""
    proc.interrupt(cause)
    proc.add_callback(lambda p: None)


def _expected_stop(exc: BaseException) -> bool:
    """An injected fail-stop crash (recovery handles it) or the
    teardown's interrupt: never a run's root cause."""
    return (isinstance(exc, Interrupt)
            and isinstance(exc.cause, (NodeCrash, RunAborted)))


def run_supervised(sim: Simulator, clients: Dict[int, Process],
                   servers: List[Process], shutdown: Generator) -> None:
    """Drive one run to its end; the Panda and the baseline runtimes
    share this.  ``clients`` maps each rank to its process.

    A supervisor waits for every client, then runs ``shutdown`` (the
    runtime's own goodbye to its servers) and joins the servers.  If a
    client fails, the supervisor instead tears the run down: every live
    client and server is interrupted with :class:`RunAborted` naming
    the failed rank, and ``shutdown`` never runs.  Peers stranded
    mid-collective, retry loops and failure-detector polls all stop
    where they wait; held links and disk arms are released by the
    ``finally`` blocks that already serve an injected crash.

    Raises the run's root cause: the first process failure that is not
    an expected stop, chained to the engine's own error (an unhandled
    failure, a deadlock) when there is one."""

    procs = [*clients.values(), *servers]

    def supervisor():
        try:
            yield sim.all_of(clients.values())
        except Exception as exc:
            rank = next(r for r, p in clients.items() if p.exception is exc)
            abort = RunAborted(rank, exc)
            for p in procs:
                if p.is_alive:
                    _stop(p, abort)
            return
        yield from shutdown
        try:
            yield sim.all_of(servers)
        except Exception as exc:
            if not _expected_stop(exc):
                raise

    sim.spawn(supervisor(), name="supervisor")
    error = None
    try:
        sim.run()
    except Exception as exc:
        error = exc
    for p in procs:
        if p.exception is not None and not _expected_stop(p.exception):
            raise p.exception from error
    if error is not None:
        raise error


class PandaRuntime:
    """A Panda deployment on a simulated machine."""

    def __init__(
        self,
        n_compute: int,
        n_io: int,
        spec: MachineSpec = NAS_SP2,
        config: Optional[PandaConfig] = None,
        real_payloads: bool = True,
        trace: bool = False,
    ) -> None:
        spec.check_nodes(n_compute, n_io)
        self.n_compute = n_compute
        self.n_io = n_io
        self.spec = spec
        self.config = config or PandaConfig()
        sched_cfg = self.config.scheduler
        if sched_cfg is not None and sched_cfg.n_shards > n_io:
            raise ValueError(
                f"{sched_cfg.n_shards} admission shards need at least as "
                f"many I/O nodes; this runtime has {n_io}"
            )
        #: consistent-hash dataset -> shard-master map (sharded
        #: admission only; ``None`` single-master keeps every routing
        #: decision, and timing, bit-identical to the unsharded code).
        self.shard_map = None
        if sched_cfg is not None and sched_cfg.n_shards > 1:
            from repro.core.scheduler import ShardMap

            self.shard_map = ShardMap(sched_cfg.n_shards)
        self.real_payloads = real_payloads
        self.trace = Trace() if trace else None
        self.sim = Simulator()
        self.injector: Optional[FaultInjector] = None
        if self.config.faults is not None:
            self.check_crash_plan(self.config.faults.crashes)
            self.injector = FaultInjector(self.config.faults, self.sim,
                                          trace=self.trace)
            self.injector.droppable_tags = DROPPABLE
        self.network = Network(self.sim, spec, n_compute + n_io,
                               trace=self.trace, injector=self.injector)
        self.filesystems = [
            FileSystem(self.sim, spec, node=f"ionode{i}", real=real_payloads,
                       trace=self.trace, injector=self.injector)
            for i in range(n_io)
        ]
        self.oplog = OpLog()
        #: dataset name -> CollectiveOp that wrote it (the catalog the
        #: paper keeps in .schema files).
        self.catalog: Dict[str, CollectiveOp] = {}
        #: I/O nodes crashed in the *current* run (fail-stop).  The
        #: master's failure detector consults this -- the simulation
        #: grants a perfect detector; real deployments approximate one
        #: with heartbeats.  Reset per run (a fresh run respawns -- i.e.
        #: repairs -- every node).
        self.crashed_servers: set = set()
        #: dataset -> {crashed server index -> recovery assignments}:
        #: where reads must fetch a recovered server's plan portion
        #: instead of its (possibly partial) own file.  Persists across
        #: runs, like the catalog.
        self.relocations: Dict[str, Dict[int, tuple]] = {}
        #: scheduled mode (``config.scheduler`` set): the shard
        #: masters' per-op queue-wait/turnaround observations
        #: (:class:`repro.core.scheduler.SchedStats`); replaced at the
        #: start of each run.  ``None`` with ``scheduler=None``: the
        #: paper discipline keeps no admission accounting.
        self.sched_stats: Optional[SchedStats] = None
        #: ``slo`` policy: shard index -> that master's per-tenant
        #: :class:`repro.obs.slo.SLOTracker`; replaced at the start of
        #: each run, empty under every other policy.
        self.slo_trackers: Dict[int, "SLOTracker"] = {}
        #: first admission number of the next run: shard *s* issues
        #: ``base + s, base + s + n_shards, ...``, so ``admit_seq`` is
        #: unique for the runtime's lifetime, not just per run.
        self.admit_base = 0
        self._client_state: Dict[int, dict] = {r: {} for r in range(n_compute)}
        #: optional :class:`repro.replay.capture.TraceRecorder`: when
        #: attached, run boundaries, binds and op arrivals are captured
        #: into a replayable WorkloadTrace.  Capture is passive -- a
        #: recorded run is bit-identical to an unrecorded one.
        self.recorder = None
        #: replay mode: absolute-instant crash plan for the next run,
        #: overriding the config's run-relative crash times (set and
        #: cleared by :func:`repro.replay.replayer.replay`).
        self._replay_crashes_abs: Optional[List[tuple]] = None

    # -- rank arithmetic ------------------------------------------------------
    @property
    def master_client_rank(self) -> int:
        return 0

    @property
    def master_server_rank(self) -> int:
        return self.n_compute

    @property
    def client_ranks(self) -> range:
        return range(self.n_compute)

    @property
    def server_ranks(self) -> range:
        return range(self.n_compute, self.n_compute + self.n_io)

    def server_rank(self, server_index: int) -> int:
        return self.n_compute + server_index

    def filesystem(self, server_index: int) -> FileSystem:
        return self.filesystems[server_index]

    # -- admission-shard routing ----------------------------------------------
    @property
    def n_shards(self) -> int:
        """Admission shards (1 = the paper's single master server)."""
        sched = self.config.scheduler
        return sched.n_shards if sched is not None else 1

    def shard_owner(self, dataset: str) -> int:
        """Shard-master server index owning ``dataset``'s admission.
        In fault mode a crashed shard master's datasets fall through to
        the next live shard on the ring (minimal relocation), which is
        how its queued work re-partitions onto the survivors."""
        if self.shard_map is None:
            return 0
        live = None
        if self.injector is not None and self.crashed_servers:
            live = {s for s in range(self.n_shards)
                    if s not in self.crashed_servers}
        return self.shard_map.owner(dataset, live)

    def op_master_rank(self, dataset: str) -> int:
        """Rank a client sends ``dataset``'s REQUEST to: the owning
        shard master (the single master server when unsharded)."""
        return self.server_rank(self.shard_owner(dataset))

    # -- fault schedule across runs -------------------------------------------
    def check_crash_plan(self, crashes: Iterable[tuple]) -> None:
        """Refuse a fail-stop crash plan this runtime cannot carry out:
        an index that names no I/O node, a negative time, or the master
        server (index 0) without a sharded scheduler (``n_shards > 1``)
        whose other shard masters can take over.  The one check every
        crash plan passes -- the config's, a rescheduled one, and each
        run a replay re-drives -- before any simulated time passes."""
        for idx, t in crashes:
            if not 0 <= idx < self.n_io:
                raise ValueError(
                    f"crash server index {idx} out of range: this "
                    f"runtime has {self.n_io} I/O node(s)"
                )
            if idx == 0 and self.n_shards <= 1:
                raise ValueError(
                    "the master server (index 0) may crash only under a "
                    "sharded scheduler (n_shards > 1): with a single "
                    "master there is no surviving shard to fail over to"
                )
            if t < 0:
                raise ValueError(f"crash time {t} must be >= 0")

    def reschedule_crashes(
        self, crashes: List[tuple]
    ) -> None:
        """Swap the fail-stop crash schedule used by subsequent runs.

        The soak harness drives one runtime through many load cycles
        (file systems and catalog persist, each run repairs crashed
        nodes) and needs a *different* crash each cycle; crash times
        are relative to each run's start, read from the config at
        ``run_partitioned`` entry, so replacing the frozen spec here is
        all it takes.  Rates, seeds and PRNG streams are untouched --
        the fault schedule stays a pure function of the original seed.
        """
        from dataclasses import replace

        if self.config.faults is None or self.injector is None:
            raise ValueError(
                "reschedule_crashes needs fault mode: construct the "
                "runtime with PandaConfig(faults=FaultSpec(...))"
            )
        spec = replace(self.config.faults, crashes=tuple(crashes))
        self.check_crash_plan(spec.crashes)
        self.config = replace(self.config, faults=spec)
        self.injector.spec = spec
        # keep the plan's view coherent; its PRNG streams are keyed on
        # the (unchanged) seed, so in-flight draws are unaffected
        self.injector.plan.spec = spec

    # -- catalog (.schema files) -------------------------------------------------
    def catalog_check(self, op: CollectiveOp) -> None:
        """Master-server validation before an op runs."""
        if op.kind != "read":
            return
        stored = self.catalog.get(op.dataset)
        if stored is None:
            raise FileNotFoundError(
                f"dataset {op.dataset!r} has no schema entry; it was never "
                "written"
            )
        stored_by_name = {a.name: a for a in stored.arrays}
        for spec in op.arrays:
            prev = stored_by_name.get(spec.name)
            if prev is None:
                raise KeyError(
                    f"array {spec.name!r} is not part of dataset {op.dataset!r}"
                )
            if prev.shape != spec.shape or prev.itemsize != spec.itemsize:
                raise ValueError(
                    f"array {spec.name!r}: shape/itemsize do not match the "
                    f"stored dataset {op.dataset!r}"
                )
            if prev.disk_schema != spec.disk_schema:
                raise ValueError(
                    f"array {spec.name!r}: disk schema differs from the one "
                    f"{op.dataset!r} was written with; the on-disk layout is "
                    "fixed at write time (the memory schema may differ freely)"
                )
        # reads must also cover the arrays in the stored order for the
        # file offsets to line up
        if [a.name for a in op.arrays] != [a.name for a in stored.arrays]:
            raise ValueError(
                f"dataset {op.dataset!r} must be read with the same arrays "
                "in the same order it was written with"
            )

    def catalog_commit(self, op: CollectiveOp) -> None:
        """Record a completed write in the catalog and store the .schema
        file beside the data (on the master server's file system).
        Any recovery relocations for the dataset (recorded by the
        master just before commit) are written into the .schema file so
        the on-disk metadata names where every chunk actually lives."""
        self.catalog[op.dataset] = op
        text = ('{\n "dataset": ' + json.dumps(op.dataset) + ","
                + _schema_tail(op.arrays, self.n_io,
                               self.config.sub_chunk_bytes))
        relocated = self.relocations.get(op.dataset)
        if relocated:
            reloc = json.dumps({
                str(crashed): [
                    {"survivor": a.survivor_index, "file": a.file_name,
                     "nbytes": a.nbytes}
                    for a in assignments
                ]
                for crashed, assignments in sorted(relocated.items())
            }, indent=1)
            # one level down: every line of the nested value gains the
            # enclosing object's indent (string newlines are escaped)
            text = (text[:-2] + ',\n "relocations": '
                    + reloc.replace("\n", "\n ") + "\n}")
        blob = text.encode()
        store = self.filesystems[0].store
        path = f"{op.dataset}.schema"
        store.create(path, truncate=True)
        store.write(path, 0, blob if store.real else None, len(blob))

    # -- execution -----------------------------------------------------------------
    def run(self, app: Callable, *args, **kwargs) -> RunResult:
        """Run the SPMD application ``app(ctx, *args, **kwargs)`` on all
        compute ranks, with Panda servers live on all I/O ranks."""
        ranks = tuple(range(self.n_compute))
        return self.run_partitioned([(app, ranks)], *args, **kwargs)

    def run_partitioned(self, assignments, *args, **kwargs) -> RunResult:
        """Run several applications concurrently on disjoint client
        groups, all sharing this runtime's I/O nodes -- the paper's
        "impact of i/o node sharing" scenario.

        ``assignments`` is a list of ``(app, ranks)`` pairs; the rank
        tuples must be disjoint (they need not cover every compute
        node).  Each application is SPMD over its own group: memory
        meshes must match the group size, and mesh position *i* is held
        by ``ranks[i]``.
        """
        from repro.core.server import PandaServer

        seen: set[int] = set()
        for _app, ranks in assignments:
            for r in ranks:
                if not 0 <= r < self.n_compute:
                    raise ValueError(f"rank {r} outside the compute nodes")
                if r in seen:
                    raise ValueError(f"rank {r} assigned to two applications")
                seen.add(r)
        if not seen:
            raise ValueError("no application assignments given")

        t0 = self.sim.now
        if self.trace is not None:
            self.trace.emit(t0, "runtime", "run_start",
                            n_compute=self.n_compute, n_io=self.n_io,
                            n_apps=len(assignments))
        counters_before = COUNTERS.snapshot()
        # the run's effective fail-stop crash plan, as absolute instants:
        # the config's times are run-relative, the replayer's recorded
        # ones already absolute.  schedule_at lands on fl(t0 + t) exactly
        # like the former schedule(t) did, so this refactor is
        # bit-identical for unrecorded runs.
        crashes_abs: List[tuple] = []
        if self.injector is not None:
            if self._replay_crashes_abs is not None:
                crashes_abs = list(self._replay_crashes_abs)
            else:
                crashes_abs = [(idx, t0 + t)
                               for idx, t in self.config.faults.crashes]
        if self.recorder is not None:
            self.recorder.on_run_start(
                [tuple(ranks) for _app, ranks in assignments], crashes_abs
            )
        self.crashed_servers = set()  # a fresh run repairs every node
        self.slo_trackers = {}  # shard masters re-register per run
        sched_cfg = self.config.scheduler
        self.sched_stats = None if sched_cfg is None else SchedStats(
            sched_cfg.policy, sched_cfg.n_shards)
        servers: List[PandaServer] = []
        server_procs = []
        for i in range(self.n_io):
            # reboot semantics: messages queued for a node that died in
            # a previous run (e.g. the supervisor's SHUTDOWN) are lost
            # with it -- the reborn server must not consume them, and
            # the dead process's pending getters must not steal this
            # run's deliveries.  A healthy node's mailbox is empty
            # here, so this is a no-op outside crash recovery.
            stale = self.network.mailboxes[self.server_rank(i)].clear()
            if stale and self.trace is not None:
                self.trace.emit(t0, "runtime", "mailbox_purged",
                                server_index=i, dropped=stale)
            server = PandaServer(
                self, i, self.network.comm(self.server_rank(i)),
                self.filesystems[i],
            )
            servers.append(server)
            server_procs.append(self.sim.spawn(server.run(), name=f"server{i}"))
        for idx, t_abs in crashes_abs:
            self.sim.schedule_at(t_abs, self._crash_server, idx, server_procs)
        clients: Dict[int, Process] = {}
        for app, ranks in assignments:
            group = tuple(ranks)
            # op ids are counted per rank but keyed per group (the op
            # log, the servers' fetches): a rank that ran in another
            # group, or that a failed run stopped short, would enter
            # with a stale serial -- the group resumes at its furthest
            serial = max(self._client_state[r].get("op_serial", 0)
                         for r in group)
            for rank in group:
                self._client_state[rank]["op_serial"] = serial
                # what a failed run left behind: late messages and the
                # stopped process's getters (empty after a clean run)
                self.network.mailboxes[rank].clear()
                ctx = ClientContext(
                    rank=rank,
                    runtime=self,
                    panda=PandaClient(
                        self, rank, self.network.comm(rank),
                        self._client_state[rank], group_ranks=group,
                    ),
                )
                clients[rank] = self.sim.spawn(app(ctx, *args, **kwargs),
                                               name=f"client{rank}")
        try:
            run_supervised(self.sim, clients, server_procs, self._shutdown())
        finally:
            # the next run numbers on from the smallest multiple of
            # n_shards above every admit_seq this run issued
            self.admit_base = max(
                (s.queue.next_seq - s.server_index for s in servers
                 if s.queue is not None), default=self.admit_base)
        ops = self.oplog.finished()
        if self.trace is not None:
            self.trace.emit(self.sim.now, "runtime", "run_end",
                            elapsed=self.sim.now - t0)
        counters_after = COUNTERS.snapshot()
        result = RunResult(
            ops=[o for o in ops], elapsed=self.sim.now - t0,
            trace=self.trace, runtime=self,
            counters={
                k: counters_after[k] - counters_before[k]
                for k in counters_after
            },
        )
        # ops are cumulative across runs; report only this run's slice
        result.ops = [o for o in ops if o.start >= t0]
        if self.recorder is not None:
            self.recorder.on_run_end(result, self.sched_stats)
        return result

    # -- fault plumbing -------------------------------------------------------
    def _crash_server(self, server_index: int, server_procs) -> None:
        """Scheduled callback: fail-stop kill of one I/O node."""
        proc = server_procs[server_index]
        if not proc.is_alive:
            return
        self.crashed_servers.add(server_index)
        self.injector.note_crash(server_index)
        _stop(proc, NodeCrash(server_index, self.sim.now))

    def live_servers(self) -> List[int]:
        """Server indices not crashed in the current run."""
        return [i for i in range(self.n_io) if i not in self.crashed_servers]

    def record_relocations(self, dataset: str, relocations: Dict[int, tuple]) -> None:
        """Commit-time update of the relocation table: a clean rewrite
        of a dataset clears any stale entries; a recovered write
        records where each crashed index's portion now lives."""
        if relocations:
            self.relocations[dataset] = dict(relocations)
        else:
            self.relocations.pop(dataset, None)

    def _shutdown(self):
        """The end of a run whose clients all finished: SHUTDOWN to
        every server (the supervisor is SHUTDOWN's one sender)."""
        comm = self.network.comm(self.master_client_rank)
        for r in self.server_ranks:
            yield from comm.send(r, Tags.SHUTDOWN)
