"""Exact host-side counter pins for four fixed figure-path suites.

The simulated results of these runs are pinned elsewhere
(``test_determinism_golden.py``); this pins the *host* work the
simulator does to produce them: events scheduled and fast-pathed,
payload bytes copied, plan- and geometry-memo hits and misses, piece
rows built and the (all-zero) fault tallies.  Each suite starts from
cold memos and zeroed counters, so the values are exact per suite and
independent of test order.

A silent fall-off the engine's zero-delay fast path shows up as
``events_fastpath`` drift; a memo keyed too finely or too coarsely
shows up in the hit/miss pairs.  These are host-side tallies, not
simulated results: a change that moves them on purpose (fewer events
per message, a re-keyed memo) re-pins them here with the per-site delta
explained.
"""

import numpy as np
import pytest

from repro import memo
from repro.bench import EXPERIMENTS, run_panda_point
from repro.core import BLOCK, Array, ArrayLayout, PandaRuntime
from repro.counters import COUNTERS
from repro.workloads.apps import write_read_roundtrip_app


def _fig_sweep(figure, sizes=None, ionodes=None):
    """Every point of one paper figure (or a sub-grid), virtual bytes."""
    exp = EXPERIMENTS[figure]
    for size_mb in sizes or exp.sizes_mb:
        for n_io in ionodes or exp.ionodes:
            run_panda_point(
                exp.kind, exp.n_compute, n_io, exp.shape(size_mb),
                disk_schema=exp.disk_schema, fast_disk=exp.fast_disk,
            )


def _real_roundtrip(shape):
    """A real-payload write + read of one BLOCK^3 array: 8 compute
    nodes, 2 I/O nodes, natural chunking."""
    memory = ArrayLayout("mem", (2, 2, 2))
    a = Array("a", shape, np.float64, memory, (BLOCK, BLOCK, BLOCK))
    runtime = PandaRuntime(n_compute=8, n_io=2, real_payloads=True)
    rng = np.random.default_rng(0)
    data = {
        "a": {
            i: np.ascontiguousarray(
                rng.standard_normal(shape)[
                    a.memory_schema.chunk(i).region.slices()
                ]
            )
            for i in range(8)
        }
    }
    # the dataset name is part of the .schema file, so its length is
    # part of bytes_copied
    runtime.run(write_read_roundtrip_app([a], "wallclock", data))


def _counters(events, fastpath, copied, plan, geom, rows):
    """All 15 counters; ``plan`` and ``geom`` are (hits, misses).  The
    fault tallies are zero on every suite here (no FaultSpec)."""
    return {
        "events_scheduled": events,
        "events_fastpath": fastpath,
        "bytes_copied": copied,
        "plan_cache_hits": plan[0],
        "plan_cache_misses": plan[1],
        "geom_cache_hits": geom[0],
        "geom_cache_misses": geom[1],
        "piece_rows_built": rows,
        "faults_injected": 0,
        "disk_faults": 0,
        "messages_dropped": 0,
        "messages_delayed": 0,
        "fault_retries": 0,
        "server_crashes": 0,
        "recoveries": 0,
    }


#: suite -> (run, expected counters)
SUITES = {
    "fig4_smoke": (
        lambda: _fig_sweep("fig4", sizes=(64,), ionodes=(4,)),
        _counters(1484, 352, 0, (4, 4), (1, 1), 64),
    ),
    "fig8_smoke": (
        lambda: _fig_sweep("fig8", sizes=(64,), ionodes=(4,)),
        _counters(8940, 2288, 0, (4, 4), (0, 2), 512),
    ),
    "real_roundtrip_2mb": (
        lambda: _real_roundtrip((64, 64, 64)),
        _counters(247, 71, 4194677, (2, 2), (1, 1), 8),
    ),
    "fig4_virtual": (
        lambda: _fig_sweep("fig4"),
        _counters(64478, 13958, 0, (84, 84), (30, 6), 3024),
    ),
}


@pytest.mark.parametrize("name", list(SUITES))
def test_counters_exact(name):
    run, expected = SUITES[name]
    memo.clear_all()
    COUNTERS.reset()
    run()
    assert COUNTERS.snapshot() == expected
