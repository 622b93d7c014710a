"""Exact pins of the baselines' simulated results.

Every baseline strategy is pinned here bit for bit: for each of the
four strategies, each kind and three memory -> disk layouts, the run's
simulated ``elapsed`` as float hex and the sha256 of every daemon's
stored file.  The arrays are small and carry real payloads, and their
extents do not divide evenly among the nodes, so some chunks are
uneven and, under ``BLOCK,*,*`` memory, two are empty.  Stripes,
cache blocks and sub-chunks are small and unaligned with the chunks,
so runs are split at stripe, segment and sub-chunk boundaries.  A
host-side change to how the strategies find their runs and pieces must
leave every value here as it is.

Regenerate (only for a change that means to move a simulated result):
``PYTHONPATH=src python tests/test_baseline_pins.py``.
"""

import hashlib

import numpy as np
import pytest

from repro.baselines import (
    BaselineRuntime,
    run_client_directed,
    run_naive_striping,
    run_traditional_caching,
    run_two_phase,
)
from repro.core import Array, ArrayLayout, BLOCK, NONE, PandaConfig
from repro.core.protocol import CollectiveOp
from repro.workloads import distribute, make_global_array

SHAPE = (12, 10, 16)
N_COMPUTE, N_IO = 8, 2

#: name -> (memory mesh, memory dists, disk dists over N_IO nodes)
LAYOUTS = {
    "block3-to-blockxx": ((2, 2, 2), [BLOCK] * 3, [BLOCK, NONE, NONE]),
    "block3-to-xxblock": ((2, 2, 2), [BLOCK] * 3, [NONE, NONE, BLOCK]),
    "blockxx-to-blockxx": ((8,), [BLOCK, NONE, NONE], [BLOCK, NONE, NONE]),
}
STRATEGIES = ("naive", "caching", "two-phase", "client-directed")


def _array(layout):
    mem_mesh, mem_dists, disk_dists = LAYOUTS[layout]
    return Array("a", SHAPE, np.float64, ArrayLayout("mem", mem_mesh),
                 mem_dists, ArrayLayout("disk", (N_IO,)), disk_dists)


def _run(strategy, layout):
    """Write then read one array with ``strategy``; returns the write's
    and the read's elapsed as float hex and the sha256 of each daemon's
    file, after checking that the read brought every chunk back and
    left the files as the write left them."""
    array = _array(layout)
    spec = array.spec()
    chunks = distribute(make_global_array(SHAPE), array.memory_schema)
    empty = {r: np.zeros_like(c) for r, c in chunks.items()}
    if strategy == "client-directed":
        rt = BaselineRuntime(N_COMPUTE, N_IO, stripe_bytes=384)
        op = CollectiveOp(op_id=0, kind="write", dataset="cd",
                          arrays=(spec,), client_ranks=tuple(range(N_COMPUTE)))
        config = PandaConfig(sub_chunk_bytes=1000)
        paths = [f"cd.s{s}.panda" for s in range(N_IO)]

        def run(kind, data):
            return run_client_directed(
                rt, op, kind, {r: {"a": c} for r, c in data.items()}, config)
    else:
        fn, path = {
            "naive": (run_naive_striping, "naive.striped"),
            "caching": (run_traditional_caching, "cfs.striped"),
            "two-phase": (run_two_phase, "twophase.striped"),
        }[strategy]
        rt = BaselineRuntime(
            N_COMPUTE, N_IO, use_cache=strategy == "caching",
            cache_bytes=2048, cache_block_bytes=256,
            stripe_bytes=1000 if strategy == "two-phase" else 384)
        paths = [path] * N_IO

        def run(kind, data):
            return fn(rt, spec, kind, data)

    def files():
        return tuple(hashlib.sha256(s.fs.read_all_bytes(p)).hexdigest()
                     for s, p in zip(rt.servers, paths))

    wrote = run("write", chunks).elapsed.hex()
    stored = files()
    read = run("read", empty).elapsed.hex()
    assert files() == stored
    for r, c in chunks.items():
        np.testing.assert_array_equal(empty[r], c)
    return wrote, read, stored


# the striped row-major file, 384-byte stripes
FILES_0 = (
    'd9deb55e4856f79cd48fb2e062566a5e4b80ad2b53d2c782a3f8ebf236a5fb93',
    '02c082992f466044a9f8da23edfeb931831da28b0df51d19b5d95467be2dfa6a',
)

# the striped row-major file, 1000-byte stripes
FILES_1 = (
    '42b6ab61a0b2f763b4cf8c59e39962e4811437259ce3ea2eb6ff5bdf88cf9755',
    '9966549a200a5234944e3582acfc9fbf2fe60bc4028c01529676008c82e31e31',
)

# Panda's files, BLOCK,*,* on disk
FILES_2 = (
    '378819b218918d0ff44878ff5fcddfe9d72686d52fac241faff740ac7d6461bc',
    'af630edef7121755549ac964ae8afb44d849500dd2563fe58726d073bbf9490c',
)

# Panda's files, *,*,BLOCK on disk
FILES_3 = (
    '55b67b0547c7958ea4619bb4b92867dff59fa19fd0ac71170bec703a223d701f',
    '9479e31e601e3b60c27a3846192b8faa4f2a15c0504d052563713db0b1b3ea30',
)

#: (strategy, layout) -> (write elapsed, read elapsed, stored files)
PINS = {
    ('naive', 'block3-to-blockxx'): ('0x1.0d9ea961281fap+4', '0x1.048a380dda2b4p+2', FILES_0),
    ('naive', 'block3-to-xxblock'): ('0x1.0d9ea961281fap+4', '0x1.048a380dda2b4p+2', FILES_0),
    ('naive', 'blockxx-to-blockxx'): ('0x1.7fb8e46b5cb97p+1', '0x1.81f1674d214e4p-1', FILES_0),
    ('caching', 'block3-to-blockxx'): ('0x1.b6357b52f6df0p+0', '0x1.dbc254f6be3f8p-1', FILES_0),
    ('caching', 'block3-to-xxblock'): ('0x1.b6357b52f6df0p+0', '0x1.dbc254f6be3f8p-1', FILES_0),
    ('caching', 'blockxx-to-blockxx'): ('0x1.b1cf4bfb9065fp+1', '0x1.a1192f4031fd4p-1', FILES_0),
    ('two-phase', 'block3-to-blockxx'): ('0x1.f4d75bb074ff8p+0', '0x1.f8a9334cefef0p-2', FILES_1),
    ('two-phase', 'block3-to-xxblock'): ('0x1.f4d75bb074ff8p+0', '0x1.f8a9334cefef0p-2', FILES_1),
    ('two-phase', 'blockxx-to-blockxx'): ('0x1.f4c50e415012dp+0', '0x1.f86b2d0e54ebcp-2', FILES_1),
    ('client-directed', 'block3-to-blockxx'): ('0x1.d4e15c89b2817p+3', '0x1.78ff2137e7d0cp+1', FILES_2),
    ('client-directed', 'block3-to-xxblock'): ('0x1.7954cd29c8649p+1', '0x1.366d5b84e6d90p-1', FILES_3),
    ('client-directed', 'blockxx-to-blockxx'): ('0x1.90c2481e8dd04p+0', '0x1.940648dc1536cp-2', FILES_2),
}


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_baseline_result_is_pinned(strategy, layout):
    assert _run(strategy, layout) == PINS[strategy, layout]


if __name__ == "__main__":
    names = {}
    lines = []
    for strategy in STRATEGIES:
        for layout in sorted(LAYOUTS):
            wrote, read, stored = _run(strategy, layout)
            name = names.setdefault(stored, f"FILES_{len(names)}")
            lines.append(f"    {(strategy, layout)!r}: "
                         f"({wrote!r}, {read!r}, {name}),")
    for stored, name in names.items():
        print(f"{name} = (")
        for digest in stored:
            print(f"    {digest!r},")
        print(")")
    print("PINS = {")
    print("\n".join(lines))
    print("}")
