"""The memo registry: bounded, oldest-first eviction, one clear for all."""

import numpy as np

from repro import memo
from repro.core import BLOCK, Array, ArrayLayout, PandaRuntime
from repro.core.costmodel import _WALK_CACHE, predict
from repro.core.plan import _PLAN_CACHE
from repro.core.protocol import CollectiveOp
from repro.core.runtime import _SCHEMA_TAILS
from repro.machine import NAS_SP2
from repro.schema.chunking import _CHUNKS_CACHE
from repro.workloads.apps import write_read_roundtrip_app

PROCESS_MEMOS = (_PLAN_CACHE, _WALK_CACHE, _SCHEMA_TAILS, _CHUNKS_CACHE)


def test_bound_plus_one_evicts_exactly_the_oldest_key():
    m = memo.Memo()
    for k in range(memo.MAX_ENTRIES):
        m[k] = str(k)
    m[0] = "again"  # re-setting a present key evicts nothing
    assert len(m) == memo.MAX_ENTRIES
    m["new"] = "x"
    assert len(m) == memo.MAX_ENTRIES
    assert 0 not in m
    assert list(m)[:2] == [1, 2] and m["new"] == "x"


def test_the_process_memos_are_registered():
    for m in PROCESS_MEMOS:
        assert isinstance(m, memo.Memo)
        assert any(r is m for r in memo._REGISTRY)


def test_clear_all_empties_every_memo_after_a_roundtrip():
    memory = ArrayLayout("mem", (2, 2))
    a = Array("a", (16, 16), np.float64, memory, (BLOCK, BLOCK))
    runtime = PandaRuntime(n_compute=4, n_io=2, real_payloads=False)
    runtime.run(write_read_roundtrip_app([a], "memo"))
    op = CollectiveOp(0, "write", "memo", (a.spec(),), tuple(range(4)))
    predict(op, 4, 2, NAS_SP2, runtime.config)
    assert all(PROCESS_MEMOS), [len(m) for m in PROCESS_MEMOS]
    memo.clear_all()
    assert not any(PROCESS_MEMOS), [len(m) for m in PROCESS_MEMOS]
