"""Property tests for the trace format and the capture/replay loop.

Two invariants over randomized storm workloads, and one over payload
bytes:

- **serialization roundtrip** -- ``loads(dumps(t)) == t`` exactly: the
  trace document is plain JSON types only, so nothing is lost or
  coerced on the way through a file; likewise any library config,
  with and without faults, scheduler and SLO budget, survives
  ``config_to_doc`` -> JSON -> ``config_from_doc``;
- **capture -> replay -> capture is a fixpoint** -- replaying a capture
  while re-recording it reproduces the identical trace document
  (modulo nothing: same stimuli, same instants, same payloads, same
  expectations).  This is strictly stronger than "replay matches the
  fingerprints": the *recording machinery itself* observes the same
  execution both times;
- **payload encoding roundtrip** -- one ``zlib.decompress`` gives the
  bytes back, and the same bytes always encode to the same string.
"""

import base64
import json
import zlib

from hypothesis import given, settings, strategies as st

from repro.core import PandaConfig, SchedulerConfig
from repro.faults import FaultSpec
from repro.obs.slo import SLOBudget
from repro.replay import TraceRecorder, WorkloadTrace, replay
from repro.replay.trace import config_from_doc, config_to_doc, encode_payload
from repro.workloads.storm import StormParams, run_storm


def _capture(params: StormParams) -> WorkloadTrace:
    holder = {}
    run_storm(params, runtime_hook=lambda rt: holder.update(
        rec=TraceRecorder(rt, name="prop")))
    return holder["rec"].trace()


storm_params = st.builds(
    StormParams,
    n_tenants=st.integers(1, 3),
    n_io=st.integers(1, 2),
    policy=st.sampled_from(["fifo", "sjf", "fair", "slo"]),
    rounds=st.integers(1, 2),
    deadline=st.sampled_from([0.05, 0.2]),
    burst_skew=st.floats(0.0, 1.0, allow_nan=False),
    restart_every=st.integers(1, 3),
    elements=st.sampled_from([8, 32]),
    size_classes=st.sampled_from([(1,), (1, 4)]),
    seed=st.integers(0, 2 ** 16),
    faults=st.sampled_from([
        None,
        FaultSpec(seed=1, msg_drop_rate=0.05),
        FaultSpec(seed=2, msg_delay_rate=0.2),
    ]),
    real_payloads=st.booleans(),
)


rates = st.floats(0.0, 1.0)
configs = st.builds(
    PandaConfig,
    sub_chunk_bytes=st.integers(1, 1 << 22),
    nonblocking=st.booleans(),
    faults=st.none() | st.builds(
        FaultSpec,
        seed=st.integers(0, 2 ** 16),
        disk_fault_rate=rates,
        msg_drop_rate=rates,
        msg_delay_rate=rates,
        crashes=st.lists(st.tuples(st.integers(0, 7), st.floats(0.0, 10.0)),
                         max_size=2).map(tuple),
    ),
    scheduler=st.none() | st.builds(
        SchedulerConfig,
        policy=st.sampled_from(["fifo", "sjf", "fair", "slo"]),
        max_in_flight=st.integers(1, 8),
        queue_limit=st.integers(1, 32),
        n_shards=st.integers(1, 4),
    ) | st.builds(
        SchedulerConfig,
        policy=st.just("slo"),
        slo=st.builds(SLOBudget, turnaround_p99=st.floats(0.01, 10.0),
                      cooloff=st.sampled_from([0.0, 1.0])),
    ),
)


@settings(max_examples=20, deadline=None)
@given(params=storm_params, config=configs)
def test_trace_json_roundtrip_is_exact(params, config):
    trace = _capture(params)
    assert WorkloadTrace.loads(trace.dumps()) == trace
    doc = json.loads(json.dumps(config_to_doc(config)))
    assert config_from_doc(doc) == config


@settings(max_examples=20, deadline=None)
@given(params=storm_params)
def test_capture_replay_capture_is_fixpoint(params):
    trace = _capture(params)
    outcome = replay(WorkloadTrace.loads(trace.dumps()), recapture=True)
    assert outcome.ok, outcome.mismatches
    assert WorkloadTrace.equivalent(outcome.recaptured, trace)
    assert outcome.recaptured.dumps() == trace.dumps()


@settings(max_examples=100, deadline=None)
@given(raw=st.binary(max_size=4096))
def test_payload_encoding_roundtrips_and_is_deterministic(raw):
    blob = encode_payload(raw)
    assert zlib.decompress(base64.b64decode(blob)) == raw
    assert encode_payload(bytearray(raw)) == blob
