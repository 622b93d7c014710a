"""Fault injection and recovery: transient disk errors, message
drop/delay, and I/O-node crashes must be survived bit-exactly (within
the retry budget), deterministically (same seed, same schedule), and
visibly (trace events and counters for every decision)."""

import json

import numpy as np
import pytest

from repro.core import Array, ArrayLayout, PandaConfig, PandaRuntime
from repro.core.plan import dataset_file
from repro.faults import (
    BACKOFF,
    MAX_BACKOFF,
    MAX_RETRIES,
    RETRY_DELAY,
    RETRY_TIMEOUT,
    FaultInjector,
    FaultRecoveryError,
    FaultSpec,
    TransientDiskError,
)
from repro.schema import BLOCK, NONE
from repro.sim import Simulator
from repro.workloads import (
    distribute,
    make_global_array,
    read_array_app,
    write_array_app,
    write_read_roundtrip_app,
)

SHAPE = (24, 24)


def make_array():
    mem = ArrayLayout("mem", (2, 2))
    disk = ArrayLayout("disk", (3,))
    return Array("a", SHAPE, np.float64, mem, (BLOCK, BLOCK), disk, (BLOCK, NONE))


def make_runtime(faults, n_io=3, trace=True, real=True, **cfg):
    return PandaRuntime(
        n_compute=4, n_io=n_io,
        config=PandaConfig(faults=faults, **cfg),
        real_payloads=real, trace=trace,
    )


def roundtrip(rt, arr, dataset="ds"):
    """Write-then-read a deterministic array; verify every rank's chunk
    comes back bit-identical.  Returns the RunResult."""
    g = make_global_array(SHAPE)
    data = {"a": distribute(g, arr.memory_schema)}
    result = rt.run(write_read_roundtrip_app([arr], dataset, data))
    for rank, expected in data["a"].items():
        state = rt._client_state[rank]["data"]["a"]
        np.testing.assert_array_equal(state, expected)
    return result


# -- spec validation ---------------------------------------------------------

def test_rates_must_be_probabilities():
    with pytest.raises(ValueError, match="must be in"):
        FaultSpec(msg_drop_rate=1.5)
    with pytest.raises(ValueError, match="must be in"):
        FaultSpec(disk_fault_rate=-0.1)


def test_master_server_cannot_crash():
    with pytest.raises(ValueError, match="master server"):
        make_runtime(FaultSpec(crashes=((0, 1.0),)))


def test_crash_index_checked_against_runtime():
    with pytest.raises(ValueError, match="out of range"):
        make_runtime(FaultSpec(crashes=((5, 1.0),)), n_io=2)


# -- determinism -------------------------------------------------------------

def test_same_seed_same_schedule_and_elapsed():
    spec = FaultSpec(seed=3, msg_drop_rate=0.08, msg_delay_rate=0.1,
                     disk_fault_rate=0.05)
    results = []
    for _ in range(2):
        rt = make_runtime(spec)
        r = roundtrip(rt, make_array())
        results.append(r)
    a, b = results
    assert a.elapsed == b.elapsed
    assert [o.elapsed for o in a.ops] == [o.elapsed for o in b.ops]
    for key in ("faults_injected", "messages_dropped", "messages_delayed",
                "disk_faults", "fault_retries"):
        assert a.counters[key] == b.counters[key]
    assert a.counters["faults_injected"] > 0


def test_different_seed_different_schedule():
    specs = [FaultSpec(seed=s, msg_drop_rate=0.1, msg_delay_rate=0.1)
             for s in (1, 2)]
    elapsed = []
    for spec in specs:
        rt = make_runtime(spec)
        elapsed.append(roundtrip(rt, make_array()).elapsed)
    assert elapsed[0] != elapsed[1]


def test_zero_rates_inject_nothing():
    rt = make_runtime(FaultSpec(seed=9))
    r = roundtrip(rt, make_array())
    assert r.counters["faults_injected"] == 0
    assert r.counters["fault_retries"] == 0


# -- transient faults survived within the retry budget -----------------------

def test_disk_faults_retried_bit_exact():
    rt = make_runtime(FaultSpec(seed=5, disk_fault_rate=0.15))
    r = roundtrip(rt, make_array())
    assert r.counters["disk_faults"] > 0
    assert r.counters["fault_retries"] >= r.counters["disk_faults"]
    assert rt.trace.count("fault_disk") == r.counters["disk_faults"]
    assert rt.trace.count("fault_retry") == r.counters["fault_retries"]


def test_message_drops_retried_bit_exact():
    rt = make_runtime(FaultSpec(seed=2, msg_drop_rate=0.12))
    r = roundtrip(rt, make_array())
    assert r.counters["messages_dropped"] > 0
    assert r.counters["fault_retries"] > 0
    assert rt.trace.count("fault_msg_drop") == r.counters["messages_dropped"]


def test_message_delays_slow_but_do_not_break():
    baseline = roundtrip(make_runtime(FaultSpec(seed=4)), make_array())
    delayed = roundtrip(
        make_runtime(FaultSpec(seed=4, msg_delay_rate=0.5)),
        make_array(),
    )
    assert delayed.counters["messages_delayed"] > 0
    assert delayed.counters["messages_dropped"] == 0
    assert delayed.elapsed > baseline.elapsed


def test_only_data_plane_tags_dropped():
    """Control messages (schema, completions) must never be dropped --
    every recorded drop names a data-plane tag."""
    from repro.core.protocol import Tags

    rt = make_runtime(FaultSpec(seed=2, msg_drop_rate=0.12))
    roundtrip(rt, make_array())
    allowed = {Tags.FETCH, Tags.DATA, Tags.PIECE, Tags.PIECE_ACK}
    drops = [rec for rec in rt.trace.records if rec.kind == "fault_msg_drop"]
    assert drops
    assert all(rec["tag"] in allowed for rec in drops)


def test_retry_budget_exhaustion_raises():
    spec = FaultSpec(seed=1, msg_drop_rate=1.0)
    rt = make_runtime(spec)
    with pytest.raises(FaultRecoveryError, match="after 8 retries"):
        roundtrip(rt, make_array())


# -- crash recovery ----------------------------------------------------------

def test_midop_crash_write_recovers_onto_survivors():
    rt = make_runtime(FaultSpec(seed=1, crashes=((2, 0.005),)))
    r = roundtrip(rt, make_array())
    assert r.counters["server_crashes"] == 1
    assert r.counters["recoveries"] == 1
    recs = [rec for rec in rt.trace.records if rec.kind == "recovery"]
    assert recs and recs[0]["mode"] == "midop" and recs[0]["crashed"] == 2
    # the crashed index's portion now lives in survivors' recovery files
    assignments = rt.relocations["ds"][2]
    assert all(a.crashed_index == 2 for a in assignments)
    for a in assignments:
        fs = rt.filesystem(a.survivor_index)
        assert fs.exists(a.file_name)
        assert fs.size(a.file_name) == a.nbytes


#: four 2-row sub-chunks per server for make_array's 8x24 disk chunks
SUBCHUNK = 2 * 24 * 8


def test_failed_commit_leaves_every_file_at_its_committed_size():
    """Every disk request fails: the gathered sub-chunks sit in
    reservations that are never committed, so no server's file grows
    and none of those bytes can be read."""
    rt = make_runtime(FaultSpec(seed=1, disk_fault_rate=1.0),
                      sub_chunk_bytes=SUBCHUNK)
    arr = make_array()
    data = {"a": distribute(make_global_array(SHAPE), arr.memory_schema)}
    with pytest.raises(FaultRecoveryError, match="after 8 retries"):
        rt.run(write_array_app([arr], "ds", data))
    for index in range(rt.n_io):
        store = rt.filesystem(index).store
        path = dataset_file("ds", index)
        assert store.size(path) == 0 and store.read_all(path) == b""
        with pytest.raises(ValueError, match="read past EOF"):
            store.read(path, 0, 1)


def test_crash_mid_gather_leaves_whole_committed_subchunks():
    """A crash between a sub-chunk's reservation and its commit: the
    crashed server's file keeps exactly the sub-chunks it committed,
    and the run recovers bit-exact onto the survivors."""
    arr = make_array()

    def gathers(rt):
        # stamped when a gather ends, before its commit
        return [rec for rec in rt.trace.records if rec.kind == "srv_gather"
                and rec.source == "server1" and rec["op_id"] == 0]

    clean = make_runtime(FaultSpec(seed=1), sub_chunk_bytes=SUBCHUNK)
    roundtrip(clean, arr)
    seq1 = gathers(clean)[1]
    t = seq1.time - seq1["service"] / 2
    rt = make_runtime(FaultSpec(seed=1, crashes=((1, t),)),
                      sub_chunk_bytes=SUBCHUNK)
    r = roundtrip(rt, arr)
    assert r.counters["server_crashes"] == 1
    assert r.counters["recoveries"] == 1
    assert [rec["seq"] for rec in gathers(rt)] == [0]
    size = rt.filesystem(1).size(dataset_file("ds", 1))
    assert size == SUBCHUNK  # seq 0 committed, seq 1's gather cut short


def test_upfront_crash_write_recovers_onto_survivors():
    rt = make_runtime(FaultSpec(seed=1, crashes=((1, 0.0),)))
    r = roundtrip(rt, make_array())
    assert r.counters["server_crashes"] == 1
    recs = [rec for rec in rt.trace.records if rec.kind == "recovery"]
    assert recs and recs[0]["mode"] == "upfront"
    assert 1 in rt.relocations["ds"]


def test_relocations_recorded_in_schema_file():
    rt = make_runtime(FaultSpec(seed=1, crashes=((2, 0.0),)))
    arr = make_array()
    g = make_global_array(SHAPE)
    data = {"a": distribute(g, arr.memory_schema)}
    rt.run(write_array_app([arr], "ds", data))
    desc = json.loads(rt.filesystems[0].read_all_bytes("ds.schema"))
    assert "2" in desc["relocations"]
    entry = desc["relocations"]["2"][0]
    assert entry["file"].startswith("ds.s2r")


def test_read_after_recovery_in_later_run():
    """Relocations persist across runs: a later run still routes the
    crashed index's portion to the recovery files."""
    rt = make_runtime(FaultSpec(seed=1, crashes=((1, 0.0),)))
    arr = make_array()
    g = make_global_array(SHAPE)
    data = {"a": distribute(g, arr.memory_schema)}
    rt.run(write_array_app([arr], "ds", data))
    rt.run(read_array_app([arr], "ds"))
    for rank, expected in data["a"].items():
        np.testing.assert_array_equal(
            rt._client_state[rank]["data"]["a"], expected
        )


def test_read_of_unrelocated_crashed_data_raises():
    """A crash *after* a clean write strands that portion on the dead
    node: reading it must fail loudly, not hang or fabricate data."""
    rt = make_runtime(FaultSpec(seed=1, crashes=((1, 0.6),)))
    arr = make_array()
    g = make_global_array(SHAPE)
    data = {"a": distribute(g, arr.memory_schema)}

    def app(ctx):
        ctx.bind(arr, data["a"].get(ctx.group_index))
        from repro.core.api import ArrayGroup
        grp = ArrayGroup("g")
        grp.include(arr)
        yield from grp.write(ctx, "ds")
        yield from ctx.compute(1.0)  # the crash lands between the ops
        yield from grp.read(ctx, "ds")

    with pytest.raises(FaultRecoveryError, match="unreachable"):
        rt.run(app)


def test_crash_recovery_virtual_payloads():
    """Recovery also works in virtual-payload (timing-only) mode."""
    rt = make_runtime(FaultSpec(seed=1, crashes=((2, 0.005),)), real=False)
    arr = make_array()
    r = rt.run(write_read_roundtrip_app([arr], "ds"))
    assert r.counters["server_crashes"] == 1
    assert len(r.ops) == 2


def test_clean_rewrite_clears_relocations():
    rt = make_runtime(FaultSpec(seed=1, crashes=((1, 0.0),)))
    arr = make_array()
    g = make_global_array(SHAPE)
    data = {"a": distribute(g, arr.memory_schema)}
    rt.run(write_array_app([arr], "ds", data))
    assert 1 in rt.relocations["ds"]
    # hand-repair the node (no crashes this time) and rewrite cleanly
    rt2 = make_runtime(FaultSpec(seed=1))
    rt2.run(write_array_app([arr], "ds", data))
    assert "ds" not in rt2.relocations


def test_describe_reports_faults():
    rt = make_runtime(FaultSpec(seed=2, msg_drop_rate=0.12))
    r = roundtrip(rt, make_array())
    assert "faults:" in r.describe()


# -- injector unit behaviour -------------------------------------------------

def test_fault_plan_streams_are_independent():
    spec = FaultSpec(seed=0, msg_drop_rate=0.5)
    inj = FaultInjector(spec, Simulator())
    inj.droppable_tags = frozenset({13})
    # the same directed link replays identically for the same seed
    a = [inj.plan.drop(1, 2) for _ in range(64)]
    inj2 = FaultInjector(spec, Simulator())
    b = [inj2.plan.drop(1, 2) for _ in range(64)]
    assert a == b
    assert any(a) and not all(a)
    # a different link draws from its own stream
    c = [inj2.plan.drop(2, 1) for _ in range(64)]
    assert c != a


def test_disk_fault_surfaces_as_oserror_subclass():
    assert issubclass(TransientDiskError, OSError)


# -- bounded exponential backoff ---------------------------------------------

def test_backoff_is_clamped_at_max_backoff():
    """Regression: the backoff used to be unbounded -- at the default
    budget (``RETRY_TIMEOUT`` 0.5 s, factor 2, 8 retries) attempt 8 waited
    ``0.5 * 2**8 = 128`` simulated seconds on one exchange, which the
    failure detector misreads as a crash.  Every backed-off timeout and
    sleep must now cap at ``MAX_BACKOFF``."""
    inj = FaultInjector(FaultSpec(), Simulator())
    # the old (unclamped) formula really did blow past the cap
    unclamped = RETRY_TIMEOUT * BACKOFF ** MAX_RETRIES
    assert unclamped > MAX_BACKOFF
    assert inj.backoff_timeout(MAX_RETRIES) == MAX_BACKOFF
    assert inj.backoff_delay(40) == MAX_BACKOFF
    # early attempts are untouched by the clamp
    assert inj.backoff_timeout(0) == RETRY_TIMEOUT
    assert inj.backoff_timeout(1) == RETRY_TIMEOUT * BACKOFF
    assert inj.backoff_delay(1) == RETRY_DELAY
    # the clamp kicks in exactly where the curve crosses it
    for attempt in range(MAX_RETRIES + 4):
        t = inj.backoff_timeout(attempt)
        assert t <= MAX_BACKOFF
        assert t == min(RETRY_TIMEOUT * BACKOFF ** attempt, MAX_BACKOFF)
