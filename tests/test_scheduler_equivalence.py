"""Serial-equivalence harness for the inter-op scheduler.

The scheduler's core correctness claim: for any policy and any op mix,
interleaving concurrent collectives at sub-chunk granularity leaves
every byte of every server file -- and every client's arrays -- exactly
as the paper's serial one-op-at-a-time loop does.  The design argument
is conflict-aware admission (same-dataset ops serialize in arrival
order; disjoint-dataset ops commute); this harness checks the claim
end to end over randomized workloads, with real payloads, for every
policy over several seeds.

On failure it names the first diverging op (by admission order), which
is the debugging entry point: everything admitted before it matched.
"""

import random

import numpy as np
import pytest

from repro.core import (
    Array,
    ArrayGroup,
    ArrayLayout,
    BLOCK,
    NONE,
    PandaConfig,
    PandaRuntime,
    SchedulerConfig,
)
from repro.core.scheduler import POLICIES
from repro.workloads import distribute, make_global_array

N_COMPUTE = 8
N_IO = 2
SHAPE = (32, 32)      # 8 KB per array ...
SUB_CHUNK = 1024      # ... in 1 KB sub-chunks: real interleaving depth
SEEDS = range(5)

#: per-group op menu after the opening write of the group's own dataset
_MENU = ("write_own", "read_own", "write_hot", "write_reorg")


def _make_app(g: int, group_size: int, ops, priority: int,
              n_io: int = N_IO, shared_hot: bool = False):
    """One client group's SPMD app: an opening write of its private
    dataset, then the drawn op sequence.  ``write_hot`` targets the
    dataset every group writes (cross-group write-write conflicts);
    ``write_reorg`` uses a disk schema different from memory, so its
    gathers reorganize.

    ``shared_hot`` makes every group's hot writes carry the *same*
    bytes, so their final content is commit-order-independent.  The
    scheduler preserves same-dataset *arrival* order, but the arrival
    order of two causally unrelated groups' hot REQUESTs is itself a
    timing outcome that scheduling legitimately changes -- comparisons
    against a differently-timed reference must not hang byte equality
    on it (the sharded suite below asserts conflict serialization
    directly from the scheduler records instead)."""
    mem = ArrayLayout(f"mem{g}", (group_size,))
    dist = [BLOCK, NONE]
    own = Array(f"g{g}", SHAPE, np.float64, mem, dist,
                sub_chunk_bytes=SUB_CHUNK)
    hot = Array("hot", SHAPE, np.float64, mem, dist,
                sub_chunk_bytes=SUB_CHUNK)
    disk = ArrayLayout(f"disk{g}", (n_io,))
    reorg = Array(f"r{g}", SHAPE, np.float64, mem, dist,
                  disk, [BLOCK, NONE], sub_chunk_bytes=SUB_CHUNK)
    groups = {}
    for key, arr in (("own", own), ("hot", hot), ("reorg", reorg)):
        ag = ArrayGroup(f"{key}{g}")
        ag.include(arr)
        groups[key] = (ag, arr)
    data = distribute(make_global_array(SHAPE, seed=100 + g),
                      own.memory_schema)
    hot_data = (distribute(make_global_array(SHAPE, seed=999),
                           hot.memory_schema) if shared_hot else data)

    def app(ctx):
        for key, (_ag, arr) in groups.items():
            src = hot_data if key == "hot" else data
            ctx.bind(arr, src[ctx.group_index].copy())
        yield from groups["own"][0].write(ctx, f"g{g}", priority=priority)
        for op in ops:
            if op == "write_own":
                local = ctx.local(own)
                if local.size:
                    local += 1.0  # successive writes carry new bytes
                yield from groups["own"][0].write(ctx, f"g{g}",
                                                  priority=priority)
            elif op == "read_own":
                yield from groups["own"][0].read(ctx, f"g{g}",
                                                 priority=priority)
            elif op == "write_hot":
                if not shared_hot:
                    local = ctx.local(hot)
                    if local.size:
                        local += float(g + 1)
                yield from groups["hot"][0].write(ctx, "hot",
                                                  priority=priority)
            else:  # write_reorg
                yield from groups["reorg"][0].write(ctx, f"r{g}",
                                                    priority=priority)

    return app


def build_workload(seed: int, n_io: int = N_IO, shared_hot: bool = False):
    """Deterministic (seeded) multi-group workload: group count, per-
    group op sequences and fair-share priorities all drawn from one
    rng."""
    rng = random.Random(seed)
    n_groups = rng.choice((2, 4))
    group_size = N_COMPUTE // n_groups
    assignments = []
    for g in range(n_groups):
        ops = [rng.choice(_MENU) for _ in range(rng.randint(1, 3))]
        priority = rng.randint(1, 3)
        ranks = tuple(range(g * group_size, (g + 1) * group_size))
        assignments.append(
            (_make_app(g, group_size, ops, priority, n_io=n_io,
                       shared_hot=shared_hot), ranks)
        )
    return assignments


def run_workload(seed: int, policy, n_io: int = N_IO, n_shards: int = 1,
                 shared_hot: bool = False):
    """Run the seed's workload; policy None is the serial reference."""
    sched = None
    if policy is not None:
        sched = SchedulerConfig(policy=policy, max_in_flight=4,
                                queue_limit=16, n_shards=n_shards)
    rt = PandaRuntime(n_compute=N_COMPUTE, n_io=n_io,
                      config=PandaConfig(scheduler=sched))
    rt.run_partitioned(build_workload(seed, n_io=n_io,
                                      shared_hot=shared_hot))
    return rt


def file_state(rt):
    """{(server index, path): bytes} for every server file."""
    return {
        (i, path): fs.store.read_all(path)
        for i, fs in enumerate(rt.filesystems)
        for path in fs.store.paths()
    }


def client_state(rt):
    return {
        (rank, name): arr.copy()
        for rank, st in rt._client_state.items()
        for name, arr in st["data"].items()
    }


def _dataset_of(path: str) -> str:
    """g0.s1.panda -> g0; g0.schema -> g0."""
    if path.endswith(".schema"):
        return path[: -len(".schema")]
    head, _s, _rest = path.rpartition(".s")
    return head


def _first_diverging_op(rt, datasets):
    """The earliest-admitted scheduled op touching a diverged dataset."""
    for rec in rt.sched_stats.ops:
        if rec.dataset in datasets:
            return rec
    return None


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("seed", SEEDS)
def test_scheduled_run_is_byte_identical_to_serial(policy, seed):
    serial = run_workload(seed, None)
    sched = run_workload(seed, policy)

    want, got = file_state(serial), file_state(sched)
    diverged = {
        _dataset_of(path)
        for key in set(want) | set(got)
        for _i, path in [key]
        if want.get(key) != got.get(key)
    }
    if diverged:
        rec = _first_diverging_op(sched, diverged)
        where = (f"admit_seq {rec.admit_seq} ({rec.kind} {rec.dataset!r}, "
                 f"group {rec.group})" if rec else "<no scheduled op>")
        pytest.fail(
            f"policy {policy!r} seed {seed}: server files diverge from the "
            f"serial run for dataset(s) {sorted(diverged)}; first diverging "
            f"op: {where}"
        )

    cw, cg = client_state(serial), client_state(sched)
    assert set(cw) == set(cg)
    for key in sorted(cw):
        np.testing.assert_array_equal(
            cw[key], cg[key],
            err_msg=f"policy {policy!r} seed {seed}: client array {key} "
                    "diverges from the serial run",
        )
    # every issued op completed under scheduling
    stats = sched.sched_stats
    assert stats is not None
    assert all(r.completed is not None for r in stats.ops)


# -- sharded admission ------------------------------------------------------
#
# Same claim, sharded: dataset-partitioned shard masters must leave every
# byte exactly as the serial loop does, for every policy and shard count.
# Same-dataset conflicts hash to the same shard, so per-shard conflict-
# aware admission is as strong as the single master's.
#
# Two harness deltas from the single-master suite.  (1) These workloads
# use ``shared_hot``: the final bytes of a dataset written by causally
# unrelated groups depend on their REQUEST *arrival* order, which is a
# timing outcome any scheduler (single-master included) legitimately
# changes, so byte equality to serial is only a theorem when such writes
# commute; conflict serialization is asserted directly from the
# scheduler records instead.  (2) Sharded runs broadcast SCHED only to
# an op's participant servers, so a server with no work never creates
# the empty dataset file the full broadcast does -- equivalence is over
# file *contents*, with absent and empty identified.

N_IO_SHARDED = 4       # enough I/O nodes for up to 4 shard masters
SHARD_COUNTS = (2, 3, 4)

_SERIAL_REF = {}


def _serial_state(seed: int):
    """Memoized serial reference per workload seed (shared by the 9
    policy x shard-count combinations that compare against it)."""
    if seed not in _SERIAL_REF:
        rt = run_workload(seed, None, n_io=N_IO_SHARDED, shared_hot=True)
        _SERIAL_REF[seed] = (file_state(rt), client_state(rt))
    return _SERIAL_REF[seed]


def _nonempty(files):
    return {k: v for k, v in files.items() if v != b""}


def _assert_conflicts_serialized(stats, label):
    """No two ops on the same dataset were ever in flight together, and
    same-dataset service follows arrival order -- the conflict-aware
    admission claim, checked against the run that actually happened."""
    by_dataset = {}
    for rec in stats.ops:
        by_dataset.setdefault(rec.dataset, []).append(rec)
    for dataset, recs in by_dataset.items():
        recs.sort(key=lambda r: r.arrived)
        for prev, nxt in zip(recs, recs[1:]):
            assert prev.completed <= nxt.admitted, (
                f"{label}: ops {prev.admit_seq} and {nxt.admit_seq} on "
                f"dataset {dataset!r} overlapped in flight"
            )


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
@pytest.mark.parametrize("seed", SEEDS)
def test_sharded_run_is_byte_identical_to_serial(policy, n_shards, seed):
    serial_files, serial_clients = _serial_state(seed)
    sharded = run_workload(seed, policy, n_io=N_IO_SHARDED,
                           n_shards=n_shards, shared_hot=True)

    want, got = _nonempty(serial_files), _nonempty(file_state(sharded))
    diverged = {
        _dataset_of(path)
        for key in set(want) | set(got)
        for _i, path in [key]
        if want.get(key) != got.get(key)
    }
    if diverged:
        rec = _first_diverging_op(sharded, diverged)
        where = (f"admit_seq {rec.admit_seq} ({rec.kind} {rec.dataset!r}, "
                 f"group {rec.group})" if rec else "<no scheduled op>")
        pytest.fail(
            f"policy {policy!r} shards {n_shards} seed {seed}: server files "
            f"diverge from the serial run for dataset(s) {sorted(diverged)}; "
            f"first diverging op: {where}"
        )

    cg = client_state(sharded)
    assert set(serial_clients) == set(cg)
    for key in sorted(serial_clients):
        np.testing.assert_array_equal(
            serial_clients[key], cg[key],
            err_msg=f"policy {policy!r} shards {n_shards} seed {seed}: "
                    f"client array {key} diverges from the serial run",
        )
    stats = sharded.sched_stats
    assert stats is not None
    assert stats.n_shards == n_shards
    assert all(r.completed is not None for r in stats.ops)
    _assert_conflicts_serialized(
        stats, f"policy {policy!r} shards {n_shards} seed {seed}"
    )
    # admit_seq carries the admitting shard in its residue
    for shard, per in stats.shards.items():
        assert all(seq % n_shards == shard for seq in per.records)


# -- the paper path is the one-slot discipline --------------------------------
#
# ``scheduler=None`` and ``SchedulerConfig("fifo", max_in_flight=1)`` run
# the same server loop and move the same bytes in the same order.  Their
# simulated timings differ only through the three rules of the paper
# discipline (``repro.core.server._Discipline``); with one client group
# the one that shows is rule 1, the scheduled master's handling charge
# per SERVER_DONE.  With one I/O node there is no SERVER_DONE message at
# all and the two are the same run.  Beyond that only the charges the op
# has to wait for count: one -- the completing SERVER_DONE's -- when the
# servers finish more than a charge apart (the paper's BLOCK,*,* disk
# layout, whose shares differ), and at most ``n_io - 1`` when symmetric
# servers (natural chunking) report inside one another's handling window.

@pytest.mark.parametrize("traditional", (False, True))
@pytest.mark.parametrize("n_io", (1, 2, 3, 4))
def test_one_slot_fifo_is_the_paper_path_plus_one_handling_charge(
        n_io, traditional):
    shape = (64, 64, 64)
    mem = ArrayLayout("mem", (2, 2, 2))
    if traditional:
        arr = Array("a", shape, np.float64, mem, [BLOCK] * 3,
                    ArrayLayout("disk", (n_io,)), [BLOCK, NONE, NONE])
    else:
        arr = Array("a", shape, np.float64, mem, [BLOCK] * 3)
    group = ArrayGroup("g")
    group.include(arr)
    data = distribute(make_global_array(shape, seed=7), arr.memory_schema)

    def app(ctx):
        ctx.bind(arr, data[ctx.group_index].copy())
        yield from group.write(ctx, "ds")
        ctx.local(arr)[...] = 0
        yield from group.read(ctx, "ds")

    def run(scheduler):
        rt = PandaRuntime(n_compute=N_COMPUTE, n_io=n_io,
                          config=PandaConfig(scheduler=scheduler))
        result = rt.run(app)
        return rt, [(op.kind, op.elapsed) for op in result.ops]

    paper_rt, paper = run(None)
    fifo_rt, fifo = run(SchedulerConfig("fifo", max_in_flight=1))

    assert [kind for kind, _ in paper] == ["write", "read"]
    if n_io == 1:
        assert fifo == paper  # bit for bit
    else:
        charge = paper_rt.spec.request_handling_overhead
        for (kind, t_paper), (_kind, t_fifo) in zip(paper, fifo):
            later = t_fifo - t_paper
            if traditional:
                assert later == pytest.approx(charge, abs=1e-12), kind
            else:
                assert charge - 1e-12 <= later <= (n_io - 1) * charge + 1e-12, kind
    assert file_state(fifo_rt) == file_state(paper_rt)
    for key, want in client_state(paper_rt).items():
        np.testing.assert_array_equal(client_state(fifo_rt)[key], want)
    # the paper path keeps no admission accounting (rule 3)
    assert paper_rt.sched_stats is None
    assert len(fifo_rt.sched_stats.ops) == 2
