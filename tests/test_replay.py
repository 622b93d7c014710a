"""Trace capture/replay: the golden corpus, the determinism contract,
and differential replay.

The corpus under ``tests/traces/`` is the regression surface: every
committed trace must (a) replay bit-exactly -- identical per-op
fingerprints, admission schedule and stored-bytes digest -- on a
runtime built from the trace alone, and (b) be re-recordable byte for
byte from its scenario recipe (the capture path is part of the
contract, not just the replay path).  The acceptance-combo trace
(``storm-small``: 2 admission shards, a shard-master crash, message
faults and SLO shedding in one capture) is additionally replayed in a
fresh interpreter through the CLI, proving the trace file really is
the whole stimulus.
"""

import base64
import hashlib
import json
import pathlib
import subprocess
import sys
import zlib

import numpy as np
import pytest

from repro import faults
from repro.core import PandaConfig, PandaRuntime
from repro.core.scheduler import DRR_QUANTUM
from repro.replay import (
    ReplayDivergence,
    TraceRecorder,
    WorkloadTrace,
    build_runtime,
    diff_lines,
    replay,
)
from repro.replay.scenarios import record_scenario, scenario_names
from repro.replay.trace import TraceFormatError, encode_payload

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
TRACES = REPO_ROOT / "tests" / "traces"
GOLDENS = sorted(p.stem for p in TRACES.glob("*.json"))


def _cli(*args):
    env = {"PYTHONPATH": str(REPO_ROOT / "src")}
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True, text=True, env=env, cwd=REPO_ROOT,
    )


def test_corpus_is_complete():
    assert GOLDENS == scenario_names()


@pytest.mark.parametrize("name", GOLDENS)
def test_golden_replays_bit_exactly(name):
    trace = WorkloadTrace.load(TRACES / f"{name}.json")
    outcome = replay(trace)
    assert outcome.ok, "\n".join(diff_lines(outcome))


@pytest.mark.parametrize("name", GOLDENS)
def test_golden_re_records_byte_identically(name):
    committed = (TRACES / f"{name}.json").read_text()
    assert record_scenario(name).dumps() + "\n" == committed


@pytest.mark.parametrize("name", GOLDENS)
def test_golden_recapture_is_fixpoint(name):
    trace = WorkloadTrace.load(TRACES / f"{name}.json")
    outcome = replay(trace, recapture=True)
    assert outcome.ok
    assert WorkloadTrace.equivalent(outcome.recaptured, trace)


@pytest.mark.parametrize("name", GOLDENS)
def test_golden_pool_is_content_addressed(name):
    """Every pool entry inflates to bytes whose sha256 is its key."""
    trace = WorkloadTrace.load(TRACES / f"{name}.json")
    for sha in trace.doc["payloads"]:
        assert hashlib.sha256(trace.payload(sha)).hexdigest() == sha


def test_storm_small_composes_faults_shards_and_shedding():
    """The acceptance combo really is in the trace: a recorded crash,
    a sharded scheduler, and shed (rejected) op events."""
    trace = WorkloadTrace.load(TRACES / "storm-small.json")
    run = trace.doc["runs"][0]
    assert run["crashes"], "no crash recorded"
    assert trace.config().scheduler.n_shards == 2
    rejected = [ev for evs in run["events"].values() for ev in evs
                if ev.get("rejected")]
    assert rejected, "no shed stimuli recorded"


def test_storm_small_replays_in_fresh_interpreter():
    """``python -m repro replay run`` on the committed combo trace:
    nothing from this process leaks into the replay."""
    proc = _cli("replay", "run", str(TRACES / "storm-small.json"),
                "--format", "json")
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["ok"] is True
    assert out["stored_equal"] is True


def test_cli_diff_and_record_roundtrip(tmp_path):
    proc = _cli("replay", "diff", str(TRACES / "roundtrip.json"))
    assert proc.returncode == 0, proc.stderr
    assert "matches recording" in proc.stdout

    out = tmp_path / "rt.json"
    proc = _cli("replay", "record", "roundtrip", "-o", str(out))
    assert proc.returncode == 0, proc.stderr
    assert out.read_text() == (TRACES / "roundtrip.json").read_text()

    proc = _cli("replay", "record", "no-such-scenario")
    assert proc.returncode == 2
    assert "unknown scenario" in proc.stderr


def test_tampered_trace_is_detected():
    trace = WorkloadTrace.load(TRACES / "roundtrip.json")
    doc = json.loads(trace.dumps())
    doc["expect"]["stored"] = "0" * 64
    outcome = replay(WorkloadTrace(doc))
    assert outcome.ok is False
    assert any("stored bytes" in m for m in outcome.mismatches)


@pytest.mark.parametrize("section, message", [
    ("payloads", r"run 0, rank \d+: payload [0-9a-f]{64} is not in"),
    ("arrays", r"run 0, rank \d+: array '[^']+' is not in"),
], ids=["payloads", "arrays"])
def test_dangling_reference_fails_at_load(section, message, tmp_path, capsys):
    """A reference to a deleted pool entry or array fails when the
    trace loads, not inside a rank mid-replay; the CLI says so and
    exits 2."""
    from repro.cli import main

    doc = json.loads(WorkloadTrace.load(TRACES / "roundtrip.json").dumps())
    del doc[section][next(iter(doc[section]))]
    with pytest.raises(TraceFormatError, match=message):
        WorkloadTrace(doc)
    path = tmp_path / "dangling.json"
    path.write_text(json.dumps(doc))
    assert main(["replay", "run", str(path)]) == 2
    assert "cannot load" in capsys.readouterr().err


# -- config keys retired as constants ----------------------------------------

@pytest.mark.parametrize("section, key, fixed, other", [
    (None, "check_collective_consistency", True, False),
    ("faults", "msg_delay", faults.MSG_DELAY, 1e-3),
    ("faults", "retry_timeout", faults.RETRY_TIMEOUT, 0.2),
    ("faults", "max_retries", faults.MAX_RETRIES, 2),
    ("faults", "backoff", faults.BACKOFF, 1.5),
    ("faults", "retry_delay", faults.RETRY_DELAY, 1e-2),
    ("faults", "detect_timeout", faults.DETECT_TIMEOUT, 0.25),
    ("faults", "max_backoff", faults.MAX_BACKOFF, 4.0),
    ("faults", "allow_master_crash", False, True),
    ("scheduler", "quantum_bytes", DRR_QUANTUM, 4096),
], ids=lambda v: v if isinstance(v, str) else None)
def test_retired_config_key_is_pinned(section, key, fixed, other):
    """A trace records each retired knob at its constant, so documents
    written while it was settable still load; a document recording
    another value is refused at load, naming the key."""
    doc = json.loads((TRACES / "storm-small.json").read_text())
    where = doc["config"] if section is None else doc["config"][section]
    assert where[key] == fixed
    where[key] = other
    with pytest.raises(TraceFormatError, match=f"config key '{key}'"):
        WorkloadTrace(doc)


def test_master_crash_on_single_master_replay_is_refused(monkeypatch):
    """Regression: replaying a fault trace whose crash plan names
    server 0 on a single-master runtime ran into a simulated deadlock
    (``SimulationError: deadlock: 6 live process(es) but no pending
    events``).  The runtime's crash-plan check now refuses it before
    any run starts, with the error the constructor raises for the same
    plan."""
    doc = json.loads(record_scenario("faulty-roundtrip").dumps())
    doc["runs"][0]["crashes"] = [[0, "0x1.0624dd2f1a9fcp-8"]]
    trace = WorkloadTrace(doc)
    plan = faults.FaultSpec(crashes=((0, 0.004),))
    with pytest.raises(ValueError, match="master server") as built:
        PandaRuntime(n_compute=doc["runtime"]["n_compute"],
                     n_io=doc["runtime"]["n_io"],
                     config=PandaConfig(faults=plan))

    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(PandaRuntime, "run_partitioned", no_run)
    with pytest.raises(ValueError) as replayed:
        replay(trace)
    assert str(replayed.value) == str(built.value)


# -- payload encoding ---------------------------------------------------------

def _zlib_b64(raw, level: int) -> str:
    return base64.b64encode(zlib.compress(raw, level)).decode("ascii")


@pytest.mark.parametrize("raw", [
    np.random.default_rng(7).standard_normal(65536),
    np.zeros(65536),
], ids=["standard_normal", "zeros"])
def test_payload_is_a_stored_zlib_stream(raw):
    assert encode_payload(raw) == _zlib_b64(raw, 0)


def test_write_with_empty_chunks_records_and_replays():
    """(2, 8) over 4 positions: two ranks bind zero-size (0, 8) chunks
    and ship them as real payloads."""
    from repro.core import Array, ArrayLayout, BLOCK, NONE, PandaRuntime
    from repro.workloads import distribute, make_global_array, write_array_app

    arr = Array("a", (2, 8), np.float64, ArrayLayout("mem", (4,)),
                [BLOCK, NONE])
    data = {"a": distribute(make_global_array((2, 8)), arr.memory_schema)}
    assert sum(chunk.size == 0 for chunk in data["a"].values()) == 2
    rt = PandaRuntime(n_compute=4, n_io=2)
    recorder = TraceRecorder(rt)
    rt.run(write_array_app([arr], "ds", data))
    trace = recorder.trace()
    assert hashlib.sha256(b"").hexdigest() in trace.doc["payloads"]
    assert replay(trace).ok


def test_level6_blob_of_incompressible_payload_still_loads():
    """Traces written when every payload was compressed at level 6
    inflate to the same bytes and replay bit-exactly."""
    trace = WorkloadTrace.load(TRACES / "roundtrip.json")
    doc = json.loads(trace.dumps())
    doc["payloads"] = {sha: _zlib_b64(trace.payload(sha), 6)
                       for sha in doc["payloads"]}
    old = WorkloadTrace(doc)
    assert doc["payloads"] != trace.doc["payloads"]
    for sha in doc["payloads"]:
        assert old.payload(sha) == trace.payload(sha)
    assert replay(old).ok


def test_replaying_shed_trace_under_fifo_diverges_on_parity():
    """Rejected ops are stimuli: a policy that admits them is a
    divergence, raised at the op that completed."""
    trace = WorkloadTrace.load(TRACES / "slo-shed.json")
    with pytest.raises(ReplayDivergence, match="completed in replay"):
        replay(trace, policy_override="fifo")


def test_fault_mode_divergence_raises_at_the_op(monkeypatch):
    """A parity violation under faults and sharding stops the replay at
    the violating op: the run's teardown ends the peers' retry loops
    and failure-detector polls.  The full replay of this trace runs to
    t = 4.25 s; rank 3's first op completes well before that."""
    from repro.replay import replayer

    doc = json.loads((TRACES / "sharded-fault.json").read_text())
    first_op = doc["runs"][0]["events"]["3"][1]
    assert first_op["type"] == "op" and not first_op["rejected"]
    first_op["rejected"] = True
    built = []
    build = replayer.build_runtime

    def spy(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(replayer, "build_runtime", spy)
    with pytest.raises(ReplayDivergence,
                       match="rank 3: .* completed in replay"):
        replay(WorkloadTrace(doc))
    (rt,) = built
    assert rt.sim.now < 3.0
    # group (2, 3) stopped at its first op; no later op of it finished
    assert all(o.dataset != "sf1" or o.op_id == 0
               for o in rt.oplog.finished())


def test_slo_override_requires_slo_policy():
    from repro.obs.slo import SLOBudget

    trace = WorkloadTrace.load(TRACES / "roundtrip.json")
    with pytest.raises(ValueError, match="policy_override='slo'"):
        build_runtime(trace, policy_override="fifo",
                      slo_override=SLOBudget(turnaround_p99=1.0))


# -- differential replay ------------------------------------------------------

@pytest.fixture(scope="module")
def herd():
    """The bench's contended herd, captured once under fifo, plus its
    strict replay and the derived demote-half-the-herd budget."""
    from repro.bench.storm import (CONTENDED_STORM, derive_budget,
                                   run_storm_comparison)
    from repro.replay.capture import TraceRecorder as TR
    from repro.workloads.storm import run_storm

    holder = {}
    run_storm(CONTENDED_STORM,
              runtime_hook=lambda rt: holder.update(rec=TR(rt, name="herd")))
    trace = WorkloadTrace.loads(holder["rec"].trace().dumps())
    base = replay(trace)
    assert base.ok
    return trace, base, derive_budget(base)


def test_differential_replay_fifo_vs_slo(herd):
    """Satellite invariant: the same captured storm under fifo vs slo
    yields identical stored bytes but a different turnaround spread --
    policy changes scheduling, never data."""
    trace, base, budget = herd
    alt = replay(trace, policy_override="slo", slo_override=budget)
    assert alt.stored == trace.expect["stored"]
    assert alt.ok is None  # fingerprint comparison is off under override
    demoted = sum(t.total_demoted
                  for t in alt.runtime.slo_trackers.values())
    shed = sum(t.total_shed for t in alt.runtime.slo_trackers.values())
    assert demoted > 0 and shed == 0
    assert (alt.run_stats[0].turnaround_spread()
            != base.run_stats[0].turnaround_spread())


def test_differential_replay_sjf_reorders_fair_degenerates(herd):
    trace, base, _budget = herd
    spread0 = base.run_stats[0].turnaround_spread()
    sjf = replay(trace, policy_override="sjf")
    assert sjf.stored == trace.expect["stored"]
    assert sjf.run_stats[0].turnaround_spread() != spread0
    # one queued op per tenant and DRR visits queues in arrival order:
    # fair degenerates to fifo on this herd (pinned so a scheduler
    # change that breaks the equivalence is noticed)
    fair = replay(trace, policy_override="fair")
    assert fair.stored == trace.expect["stored"]
    assert fair.run_stats[0].turnaround_spread() == spread0


def test_each_pooled_payload_is_inflated_once_per_trace(herd, monkeypatch):
    """Copy budget, trace pool -> client chunk: the zlib/base64 inflate
    runs once per content-addressed payload of a loaded trace, however
    many ops ship it and however many replays re-drive it."""
    import zlib

    trace = WorkloadTrace.loads(herd[0].dumps())  # a fresh, cold pool memo
    pool = trace.doc["payloads"]
    shipped = [sha for run in trace.doc["runs"]
               for events in run["events"].values() for ev in events
               for sha in ev.get("payload", {}).values()]
    assert set(shipped) == set(pool) and len(shipped) >= len(pool) > 1

    inflated = []
    real_decompress = zlib.decompress
    monkeypatch.setattr(
        zlib, "decompress",
        lambda blob, *a, **kw: inflated.append(1) or real_decompress(blob, *a, **kw))
    base = replay(trace)
    assert base.ok
    assert len(inflated) == len(pool)
    for policy in ("sjf", "fair"):
        assert replay(trace, policy_override=policy).stored \
            == trace.expect["stored"]
    assert len(inflated) == len(pool)

    # the memo follows the document: an edited pool entry is re-inflated
    flipped = bytearray(trace.payload(shipped[0]))
    flipped[0] ^= 0x01
    pool[shipped[0]] = encode_payload(flipped)
    assert trace.payload(shipped[0]) == flipped


# -- capture guards -----------------------------------------------------------

def test_recorder_refuses_midstream_attach():
    from repro.core import PandaConfig, PandaRuntime, SchedulerConfig
    from repro.machine import sp2

    rt = PandaRuntime(n_compute=1, n_io=1, spec=sp2(total_nodes=2),
                      config=PandaConfig(scheduler=SchedulerConfig()),
                      real_payloads=False)
    TraceRecorder(rt)
    with pytest.raises(ValueError, match="already"):
        TraceRecorder(rt)


def test_run_storm_comparison_tiny_smoke():
    """The bench runner end to end on a tiny herd: capture replays
    bit-exactly and every policy override leaves the stored bytes
    untouched (the full-size points live in BENCH_storm.json)."""
    from dataclasses import replace

    from repro.bench.storm import CONTENDED_STORM, run_storm_comparison

    tiny = replace(CONTENDED_STORM, n_tenants=2, rounds=1,
                   elements=64, size_classes=(1,))
    result = run_storm_comparison(tiny)
    assert result["replay_bit_exact"]
    assert set(result["policies"]) == {"fifo", "sjf", "fair", "slo"}
    for point in result["policies"].values():
        assert point["stored_equal"]
        assert point["shed"] == 0
        assert point["ops_completed"] > 0
