"""Property-based fault-injection tests: any random fault plan whose
rates sit safely below the retry budget must leave the protocol's
payload semantics untouched -- the write/read roundtrip stays
bit-identical to a fault-free run -- and the whole fault schedule must
be a pure function of the spec (same seed, same simulated timings)."""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import Array, ArrayLayout, PandaConfig, PandaRuntime
from repro.faults import FaultSpec
from repro.schema import BLOCK, NONE
from repro.workloads import distribute, make_global_array, write_read_roundtrip_app

SHAPE = (12, 12)


@st.composite
def fault_specs(draw):
    """Rates low enough that exhausting 8 retries is (astronomically)
    improbable, so every generated plan must be survivable."""
    return FaultSpec(
        seed=draw(st.integers(0, 2**31)),
        disk_fault_rate=draw(st.floats(0.0, 0.25)),
        msg_drop_rate=draw(st.floats(0.0, 0.12)),
        msg_delay_rate=draw(st.floats(0.0, 0.5)),
    )


def run_roundtrip(spec, n_io):
    mem = ArrayLayout("mem", (2,))
    disk = ArrayLayout("disk", (n_io,))
    arr = Array("a", SHAPE, np.float64, mem, (BLOCK, NONE), disk, (NONE, BLOCK))
    g = make_global_array(SHAPE)
    data = {"a": distribute(g, arr.memory_schema)}
    rt = PandaRuntime(
        n_compute=2, n_io=n_io,
        config=PandaConfig(faults=spec, sub_chunk_bytes=256),
        real_payloads=True,
    )
    result = rt.run(write_read_roundtrip_app([arr], "p", data))
    return rt, data, result


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(fault_specs(), st.integers(1, 2))
def test_survivable_fault_plans_are_bit_exact(spec, n_io):
    rt, data, result = run_roundtrip(spec, n_io)
    for rank, expected in data["a"].items():
        np.testing.assert_array_equal(
            rt._client_state[rank]["data"]["a"], expected
        )
    assert len(result.ops) == 2


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(fault_specs())
def test_fault_schedule_is_deterministic(spec):
    _, _, first = run_roundtrip(spec, 2)
    _, _, second = run_roundtrip(spec, 2)
    assert first.elapsed == second.elapsed
    assert [o.elapsed for o in first.ops] == [o.elapsed for o in second.ops]
    assert first.counters["faults_injected"] == second.counters["faults_injected"]
