"""Sharded admission: the consistent-hash shard map and the striped
admission numbering.

The shard map's contract (checked property-based, since the ring is a
hash construction with no small closed form):

- **total coverage** -- every dataset name has exactly one owner, and
  it lies in the live set;
- **balance** -- with 64 vnodes per shard, no shard owns a grossly
  disproportionate slice of a large dataset population;
- **minimal relocation** -- adding a shard only *moves datasets to the
  new shard* (never between old shards), and removing one only moves
  the removed shard's datasets (the crash re-partition case: survivors
  keep their slices).

The admission numbering contract: ``seq_start=shard, seq_step=n_shards``
makes admit_seqs globally unique across shard masters with the shard
recoverable as ``admit_seq % n_shards``, and ``(0, 1)`` reproduces the
historical single-master numbering exactly.
"""

from hypothesis import given, settings, strategies as st

import pytest

from repro.core.scheduler import (
    AdmissionQueue,
    NoLiveShardError,
    SchedulerConfig,
    ShardMap,
    _hash_point,
)
from repro.core import PandaConfig, PandaRuntime


#: dataset-name alphabet: realistic names, including the repo's own
#: bench/test conventions (g0, app17, ckpt-0003 ...)
_names = st.text(
    st.sampled_from("abcdefghijklmnopqrstuvwxyz0123456789-_."),
    min_size=1, max_size=24,
)


# -- total coverage ---------------------------------------------------------

@given(name=_names, n_shards=st.integers(1, 32))
def test_every_dataset_has_exactly_one_owner(name, n_shards):
    ring = ShardMap(n_shards)
    owner = ring.owner(name)
    assert 0 <= owner < n_shards
    # owning is a pure function of the name
    assert ring.owner(name) == owner


@given(name=_names, n_shards=st.integers(2, 16),
       data=st.data())
def test_owner_lies_in_the_live_set(name, n_shards, data):
    ring = ShardMap(n_shards)
    live = data.draw(
        st.sets(st.integers(0, n_shards - 1), min_size=1,
                max_size=n_shards)
    )
    assert ring.owner(name, live) in live


def test_empty_live_set_raises():
    """All shard masters dead: the typed error names the dataset, so
    the client retry path can surface a clean operation failure."""
    ring = ShardMap(4)
    with pytest.raises(NoLiveShardError, match="every shard master"):
        ring.owner("x", live=set())


# -- balance ----------------------------------------------------------------

@settings(max_examples=20, deadline=None)
@given(n_shards=st.sampled_from((2, 4, 8, 16)),
       n_datasets=st.sampled_from((64, 256, 1024)),
       salt=st.integers(0, 3))
def test_shares_are_balanced(n_shards, n_datasets, salt):
    """No shard owns more than 3x its fair share of a 64-1024 dataset
    population (64 vnodes/shard keeps the ring smooth; 3x is a loose
    but regression-catching bound -- a broken ring assigns everything
    to one shard)."""
    ring = ShardMap(n_shards)
    names = [f"ds{salt}-{i}" for i in range(n_datasets)]
    shares = ring.shares(names)
    assert sum(shares.values()) == n_datasets
    fair = n_datasets / n_shards
    assert max(shares.values()) <= 3 * fair


# -- minimal relocation -----------------------------------------------------

@settings(max_examples=20, deadline=None)
@given(n_shards=st.integers(2, 12), n_datasets=st.sampled_from((64, 256)))
def test_adding_a_shard_only_moves_data_to_it(n_shards, n_datasets):
    before = ShardMap(n_shards)
    after = ShardMap(n_shards + 1)
    names = [f"ds{i}" for i in range(n_datasets)]
    moved = 0
    for name in names:
        a, b = before.owner(name), after.owner(name)
        if a != b:
            assert b == n_shards, (
                f"{name!r} moved {a}->{b}, not to the new shard"
            )
            moved += 1
    # the new shard takes roughly 1/(n+1) of the keys, not everything
    assert moved < n_datasets


@settings(max_examples=20, deadline=None)
@given(n_shards=st.integers(3, 12), n_datasets=st.sampled_from((64, 256)),
       dead=st.data())
def test_removing_a_shard_only_moves_its_data(n_shards, n_datasets, dead):
    """The crash re-partition: survivors keep every dataset they owned;
    only the dead shard's datasets move, each to a live shard."""
    ring = ShardMap(n_shards)
    k = dead.draw(st.integers(1, n_shards - 1))
    live = {s for s in range(n_shards) if s != k}
    for name in (f"ds{i}" for i in range(n_datasets)):
        a = ring.owner(name)
        b = ring.owner(name, live)
        if a != k:
            assert b == a, f"{name!r} moved {a}->{b} though {a} survived"
        else:
            assert b in live


def test_hash_point_is_stable():
    """The ring must never change across runs or processes (clients and
    servers each build their own map and must agree): pin the raw hash
    so an accidental switch to a process-seeded hash fails loudly."""
    assert _hash_point("ds:x") == int.from_bytes(
        __import__("hashlib").sha256(b"ds:x").digest()[:8], "big"
    )


# -- striped admission numbering -------------------------------------------

def _push(q, i):
    from repro.core.protocol import ArraySpec, CollectiveOp
    from repro.schema import BLOCK, DataSchema

    schema = DataSchema.build((4,), (1,), [BLOCK])
    spec = ArraySpec(name=f"a{i}", shape=(4,), itemsize=8, dtype="<f8",
                     memory_schema=schema, disk_schema=schema)
    op = CollectiveOp(op_id=i, kind="write", dataset=f"d{i}",
                      arrays=(spec,), client_ranks=(0,))
    return q.push(op, now=float(i), estimate=1.0)


def test_admit_seq_striping_is_unique_and_recoverable():
    n_shards = 3
    queues = [AdmissionQueue(limit=8, policy="fifo", seq_start=s,
                             seq_step=n_shards) for s in range(n_shards)]
    seqs = {}
    for s, q in enumerate(queues):
        for i in range(4):
            entry = _push(q, i)
            assert entry.admit_seq % n_shards == s
            assert entry.admit_seq not in seqs
            seqs[entry.admit_seq] = s


def test_default_numbering_is_the_historical_one():
    q = AdmissionQueue(limit=8, policy="fifo")
    assert [_push(q, i).admit_seq for i in range(3)] == [0, 1, 2]


# -- configuration validation ----------------------------------------------

def test_n_shards_must_be_positive():
    with pytest.raises(ValueError):
        SchedulerConfig(policy="fifo", n_shards=0)


def test_n_shards_cannot_exceed_io_nodes():
    cfg = PandaConfig(scheduler=SchedulerConfig(policy="fifo", n_shards=5))
    with pytest.raises(ValueError):
        PandaRuntime(n_compute=2, n_io=4, config=cfg)


# -- one SchedStats at every shard count -------------------------------------

#: ``summary()`` text of four staggered fair-share writers on 4 I/O nodes:
#: one line per op on a single master, one line per shard when sharded
#: (each shard's op count is the residue class ``admit_seq % n_shards``).
SUMMARIES = {
    1: "scheduler (fair): 4 op(s) served, queue peak 3, in-flight peak 3\n"
       "  op   0 write app0                 prio 1 waited   0.000 s, "
       "turnaround   0.508 s\n"
       "  op   1 write app1                 prio 1 waited   0.001 s, "
       "turnaround   0.531 s\n"
       "  op   2 write app2                 prio 1 waited   0.011 s, "
       "turnaround   1.027 s\n"
       "  op   3 write app3                 prio 1 waited   0.022 s, "
       "turnaround   1.524 s",
    2: "scheduler (fair, 2 shards): 4 op(s) served, queue peak 2/shard, "
       "in-flight peak 2/shard\n"
       "  shard 0: 2 op(s), queue peak 1, in-flight peak 2\n"
       "  shard 1: 2 op(s), queue peak 2, in-flight peak 2",
}


@pytest.mark.parametrize("n_shards", sorted(SUMMARIES))
def test_summary_text_is_pinned(n_shards):
    from repro.workloads.catalog import WriterGroupsParams, build

    built = build(WriterGroupsParams(policy="fair", n_apps=4,
                                     shape=(64, 64, 64), n_shards=n_shards,
                                     stagger=0.001))
    built.run()
    stats = built.runtime.sched_stats
    assert stats.n_shards == n_shards
    assert stats.summary() == SUMMARIES[n_shards]
