"""Property-based validation of the cost model against the simulator:
random shapes, schemas, node counts and disk modes."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import Array, ArrayLayout, PandaConfig, PandaRuntime
from repro.core.costmodel import predict_arrays
from repro.machine import sp2
from repro.schema import BLOCK, NONE
from repro.workloads import write_array_app, read_array_app


@st.composite
def model_cases(draw):
    # shapes big enough that per-op noise (startup) doesn't dominate,
    # small enough to simulate quickly
    shape = (
        draw(st.sampled_from([16, 32, 64])),
        draw(st.sampled_from([32, 64])),
        draw(st.sampled_from([32, 64])),
    )
    mem_mesh = draw(st.sampled_from([(2, 2), (4, 2), (2, 2, 2), (4,)]))
    n_block = len(mem_mesh)
    mem_dists = [BLOCK] * n_block + [NONE] * (3 - n_block)
    traditional = draw(st.booleans())
    n_io = draw(st.sampled_from([1, 2, 3, 4]))
    fast = draw(st.booleans())
    kind = draw(st.sampled_from(["read", "write"]))
    sub = draw(st.sampled_from([64 * 1024, 1 << 20]))
    return shape, mem_mesh, mem_dists, traditional, n_io, fast, kind, sub


def _simulated_and_predicted(case):
    shape, mem_mesh, mem_dists, traditional, n_io, fast, kind, sub = case
    mem = ArrayLayout("m", mem_mesh)
    if traditional:
        disk = ArrayLayout("d", (n_io,))
        arr = Array("a", shape, np.float64, mem, mem_dists,
                    disk, [BLOCK, NONE, NONE])
    else:
        arr = Array("a", shape, np.float64, mem, mem_dists)
    spec = sp2(fast_disk=fast)
    config = PandaConfig(sub_chunk_bytes=sub)
    n_cn = mem.n_nodes

    rt = PandaRuntime(n_compute=n_cn, n_io=n_io, spec=spec,
                      real_payloads=False, config=config)
    rt.run(write_array_app([arr], "x"))
    if kind == "write":
        sim = rt.run(write_array_app([arr], "x")).ops[0].elapsed
    else:
        sim = rt.run(read_array_app([arr], "x")).ops[0].elapsed

    pred = predict_arrays([arr], kind, n_cn, n_io, spec, config).elapsed
    return sim, pred


def _assert_tracks(case):
    sim, pred = _simulated_and_predicted(case)
    err = abs(pred - sim) / sim
    # the startup term carries a fixed absolute modeling error, so on
    # the tiniest fast-disk runs (tens of ms) the relative bound alone
    # is too tight; 10 ms of absolute slack covers it
    assert err < 0.25 or abs(pred - sim) < 0.010, (case, sim, pred, err)


# derandomised (tests/conftest.py): every run draws the same 20 cases,
# so the gate cannot pass or fail by luck
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(model_cases())
def test_prediction_tracks_simulation(case):
    _assert_tracks(case)


#: the known miss: an uneven 22/22/20 HPF split over 3 I/O nodes under a
#: 2x2 memory mesh, fast disk, 1 MiB sub-chunks.
UNEVEN_SPLIT_CASE = ((64, 64, 64), (2, 2), [BLOCK, BLOCK, NONE], True, 3,
                     True, None, 1 << 20)


@pytest.mark.xfail(strict=True, reason=(
    "cost model misses the uneven 22/22/20 split by about 31% "
    "(read 34.14 ms predicted vs 49.66 ms simulated, write 35.32 vs "
    "50.94); strict, so the fix flips it to a failure to remove"))
@pytest.mark.parametrize("kind", ["read", "write"])
def test_prediction_tracks_uneven_three_node_split(kind):
    case = UNEVEN_SPLIT_CASE[:6] + (kind,) + UNEVEN_SPLIT_CASE[7:]
    _assert_tracks(case)


@pytest.mark.parametrize("kind, simulated, predicted", [
    ("read", 0.04966, 0.03414), ("write", 0.05094, 0.03532)])
def test_uneven_three_node_split_miss_is_pinned(kind, simulated, predicted):
    """The miss the xfail above tracks, to the tenth of a millisecond:
    a change to either side shows here first."""
    case = UNEVEN_SPLIT_CASE[:6] + (kind,) + UNEVEN_SPLIT_CASE[7:]
    sim, pred = _simulated_and_predicted(case)
    assert (round(sim, 5), round(pred, 5)) == (simulated, predicted)
