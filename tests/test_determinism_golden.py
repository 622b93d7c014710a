"""Golden determinism: simulated timings are bit-exact and invariant.

The wall-clock optimisations (engine fast path, zero-copy data plane,
plan/geometry caching) must never change *simulated* results.  This
test pins the per-op elapsed times of a fixed 4x2 write+read scenario
to values captured from the pre-optimisation seed code, as exact float
hex -- any drift, however small, fails.

The same values must hold with real and virtual payloads: payload
handling affects host time only, never the cost model.
"""

import hashlib

import numpy as np
import pytest

from repro.core import (BLOCK, NONE, Array, ArrayGroup, ArrayLayout,
                        PandaConfig, PandaRuntime)
from repro.faults import FaultSpec
from repro.workloads.apps import write_read_roundtrip_app

# captured from the seed (pre-optimisation) code; see the module docstring
GOLDEN_WRITE = float.fromhex("0x1.0bec4737626d4p-2")  # 0.26164351726093327 s
GOLDEN_READ = float.fromhex("0x1.0e222b6e0a178p-4")   # 0.06595055546552497 s


def _run_scenario(real_payloads: bool, observed: bool = False):
    memory = ArrayLayout("mem", (2, 2))
    a = Array("a", (64, 48), np.float64, memory, (BLOCK, BLOCK))
    runtime = PandaRuntime(n_compute=4, n_io=2, real_payloads=real_payloads,
                           trace=observed)
    if observed:
        from repro.obs.metrics import attach

        attach(runtime)
    data = None
    if real_payloads:
        rng = np.random.default_rng(42)
        g = rng.standard_normal((64, 48))
        data = {
            "a": {
                i: np.ascontiguousarray(
                    g[a.memory_schema.chunk(i).region.slices()]
                )
                for i in range(4)
            }
        }
    result = runtime.run(write_read_roundtrip_app([a], "golden", data))
    return [(op.kind, op.elapsed) for op in result.ops]


def test_golden_elapsed_real_payloads():
    ops = _run_scenario(real_payloads=True)
    assert ops == [("write", GOLDEN_WRITE), ("read", GOLDEN_READ)]


def test_golden_elapsed_virtual_payloads():
    ops = _run_scenario(real_payloads=False)
    assert ops == [("write", GOLDEN_WRITE), ("read", GOLDEN_READ)]


def test_golden_elapsed_with_observability():
    """Tracing plus attached metrics observers are strictly passive:
    simulated timings stay bit-identical to the untraced golden run."""
    ops = _run_scenario(real_payloads=False, observed=True)
    assert ops == [("write", GOLDEN_WRITE), ("read", GOLDEN_READ)]


def test_golden_repeatable_within_process():
    """Back-to-back runs (warm caches) and cold runs agree exactly --
    the memoisation layers are invisible to the cost model."""
    first = _run_scenario(real_payloads=False)
    second = _run_scenario(real_payloads=False)
    assert first == second


# -- unscheduled paths beyond the 4x2 roundtrip --------------------------------
#
# Per-op elapsed, exact float hex, for the ``scheduler=None`` behaviours
# the scenario above does not reach: an uneven traditional split, the
# non-blocking exchange, the reliable (fault-mode) exchange, mid-op
# crash recovery, and several client groups queueing head-of-line at the
# master.  Captured on the tree whose server still had a separate
# one-op-at-a-time loop; the paper discipline of the unified loop must
# reproduce every one of them.

_KB = 1024
_RATES = dict(msg_drop_rate=0.03, msg_delay_rate=0.05, disk_fault_rate=0.02)


def _cube(name: str, mesh, n_disk: int = 0) -> Array:
    """A (32,32,32) float64 array, BLOCK on every mesh axis in memory;
    natural chunking on disk, or ``BLOCK,*,*`` over ``n_disk`` nodes."""
    memory = ArrayLayout("mem", mesh)
    dist = [BLOCK] * len(mesh) + [NONE] * (3 - len(mesh))
    if not n_disk:
        return Array(name, (32, 32, 32), np.float64, memory, dist)
    return Array(name, (32, 32, 32), np.float64, memory, dist,
                 ArrayLayout("disk", (n_disk,)), (BLOCK, NONE, NONE))


def _elapsed_hex(result):
    return [(op.dataset, op.kind, op.elapsed.hex()) for op in result.ops]


def _single(n_io: int, traditional: bool, **config):
    """One 8-rank group, 16 KB sub-chunks, write then read."""
    a = _cube("a", (2, 2, 2), n_io if traditional else 0)
    rt = PandaRuntime(n_compute=8, n_io=n_io, real_payloads=False,
                      config=PandaConfig(sub_chunk_bytes=16 * _KB, **config))
    return _elapsed_hex(rt.run(write_read_roundtrip_app([a], "ds")))


def _partitioned(groups: int, faults=None):
    """``groups`` disjoint client groups on 8 compute / 3 I/O nodes,
    each writing then reading its own dataset; the master serves them
    one op at a time in REQUEST arrival order."""
    per = 8 // groups
    mesh = {4: (2, 2), 2: (2,)}[per]
    assignments = []
    for g in range(groups):
        arr = _cube(f"g{g}", mesh, 3)
        group = ArrayGroup(f"g{g}")
        group.include(arr)

        def app(ctx, arr=arr, group=group):
            ctx.bind(arr)
            yield from group.write(ctx)
            yield from group.read(ctx)

        assignments.append((app, tuple(range(g * per, (g + 1) * per))))
    rt = PandaRuntime(n_compute=8, n_io=3, real_payloads=False,
                      config=PandaConfig(sub_chunk_bytes=16 * _KB,
                                         faults=faults))
    return _elapsed_hex(rt.run_partitioned(assignments))


_UNSCHEDULED = {
    "trad-3io": lambda: _single(3, True),
    "nonblocking": lambda: _single(2, False, nonblocking=True),
    "faults-seed1": lambda: _single(3, True,
                                    faults=FaultSpec(seed=1, **_RATES)),
    "faults-seed2": lambda: _single(3, True,
                                    faults=FaultSpec(seed=2, **_RATES)),
    "crash-mid-write": lambda: _single(
        3, True, faults=FaultSpec(seed=1, crashes=((2, 0.3),))),
    "crash-double": lambda: _single(
        4, True, faults=FaultSpec(seed=1, crashes=((1, 0.2), (3, 0.4)))),
    "groups-2": lambda: _partitioned(2),
    "groups-3": lambda: _partitioned(3),
    "groups-2-faults": lambda: _partitioned(
        2, FaultSpec(seed=3, **_RATES)),
    "groups-3-faults": lambda: _partitioned(
        3, FaultSpec(seed=4, crashes=((1, 0.05),), **_RATES)),
}

GOLDEN_UNSCHEDULED = {
    "crash-double": [
        ("ds", "write", "0x1.03068ecd6a0d1p+1"),
        ("ds", "read", "0x1.6459858718db0p-2"),
    ],
    "crash-mid-write": [
        ("ds", "write", "0x1.e283ba9ffdfe1p+0"),
        ("ds", "read", "0x1.390c0c47bedacp-2"),
    ],
    "faults-seed1": [
        ("ds", "write", "0x1.83789068566ebp+0"),
        ("ds", "read", "0x1.b53bb375d67e4p+0"),
    ],
    "faults-seed2": [
        ("ds", "write", "0x1.866480c1afeb9p-1"),
        ("ds", "read", "0x1.ad715e6cc08fep+0"),
    ],
    "groups-2": [
        ("g0", "write", "0x1.8195538b229dap-1"),
        ("g0", "read", "0x1.d519cf2bdb062p-1"),
        ("g1", "write", "0x1.81846fadbdf97p+0"),
        ("g1", "read", "0x1.4e8dc7bfa6c94p-2"),
    ],
    "groups-2-faults": [
        ("g0", "write", "0x1.c147259d9245fp+0"),
        ("g0", "read", "0x1.e71dbbe8345ddp+1"),
        ("g1", "write", "0x1.7239cf36ebbcfp+1"),
        ("g1", "read", "0x1.ab385bbddf8b5p+1"),
    ],
    "groups-3": [
        ("g0", "write", "0x1.808fede0fc46ap-1"),
        ("g0", "read", "0x1.aa4f6b313bfb8p+0"),
        ("g1", "write", "0x1.807ffaf488934p+0"),
        ("g1", "read", "0x1.13f3f8eac0a8fp+0"),
        ("g2", "write", "0x1.205bff7c49817p+1"),
        ("g2", "read", "0x1.f6621a91155a8p-2"),
    ],
    "groups-3-faults": [
        ("g0", "write", "0x1.4fab52f6ec440p+1"),
        ("g0", "read", "0x1.1370b4b1af06ep+2"),
        ("g1", "write", "0x1.07226eb6f5373p+2"),
        ("g1", "read", "0x1.d57b1fbe97112p+1"),
        ("g2", "write", "0x1.86d19fe384145p+2"),
        ("g2", "read", "0x1.fe6e78b83a504p+0"),
    ],
    "nonblocking": [
        ("ds", "write", "0x1.fdb313c84a9d3p-1"),
        ("ds", "read", "0x1.b3ae777c01ddcp-3"),
    ],
    "trad-3io": [
        ("ds", "write", "0x1.8461a070bb1fbp-1"),
        ("ds", "read", "0x1.51c6104b0aef8p-3"),
    ],
}


@pytest.mark.parametrize("name", sorted(_UNSCHEDULED))
def test_golden_unscheduled_paths(name):
    assert _UNSCHEDULED[name]() == GOLDEN_UNSCHEDULED[name]


def _trace_digest(trace):
    """sha256 over every record -- instant, source, kind and detail,
    floats as hex -- so one moved phase mark or one extra record shows."""
    def norm(v):
        return v.hex() if isinstance(v, float) else v

    h = hashlib.sha256()
    for rec in trace.records:
        h.update(repr((rec.time.hex(), rec.source, rec.kind,
                       sorted((k, norm(v)) for k, v in rec.detail.items()))
                      ).encode())
    return h.hexdigest()


GOLDEN_TRACE_RECORDS = 116
GOLDEN_TRACE_SHA256 = (
    "5f776a75849ffea58daa46cb3a3db773e92d53fa196e680152e3fb20442dca0e")


def test_golden_trace_document_unscheduled():
    """The traced 4x2 roundtrip's whole trace document: the paper path
    emits no ``sched_*`` records, keys its phase marks by ``op_id`` and
    stamps ``srv_op_start`` when the REQUEST / SCHEMA message is read."""
    memory = ArrayLayout("mem", (2, 2))
    a = Array("a", (64, 48), np.float64, memory, (BLOCK, BLOCK))
    rt = PandaRuntime(n_compute=4, n_io=2, real_payloads=False, trace=True)
    rt.run(write_read_roundtrip_app([a], "golden"))
    assert len(rt.trace.records) == GOLDEN_TRACE_RECORDS
    assert not [r for r in rt.trace.records if r.kind.startswith("sched_")]
    assert _trace_digest(rt.trace) == GOLDEN_TRACE_SHA256
