"""Shadow-model property test for :class:`MemoryStore`.

Random interleavings of ``create`` (truncating or not), ``write``
(append, overwrite, past-EOF gap), ``read``, ``read_all``, ``size`` and
``delete`` over two paths must be byte-identical to a plain ``bytes``
model.  Read views are held live across the later operations: every one
of them must keep showing the bytes it showed when it was taken, and
stay read-only -- the store reuses a file's allocation across
truncations and writes in place, so a view is a snapshot only because
the store moves a pinned file to a fresh buffer first.
"""

import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.fs.store import MemoryStore

PATHS = ("a", "b")
MAX_WRITE = 48


def op_strategy():
    path = st.sampled_from(PATHS)
    pos = st.integers(min_value=0, max_value=4)  # quarters of the size
    nbytes = st.integers(min_value=0, max_value=MAX_WRITE)
    fill = st.integers(min_value=1, max_value=255)
    return st.lists(st.one_of(
        st.tuples(st.just("create"), path, st.booleans()),
        st.tuples(st.just("append"), path, nbytes, fill),
        st.tuples(st.just("overwrite"), path, pos, nbytes.filter(bool), fill),
        st.tuples(st.just("gap"), path, st.integers(1, 40), nbytes, fill),
        st.tuples(st.just("read"), path, pos, pos),
        st.tuples(st.just("read_all"), path),
        st.tuples(st.just("delete"), path),
    ), min_size=8, max_size=40)


def _payload(nbytes: int, fill: int) -> bytes:
    return bytes((fill + k) % 256 for k in range(nbytes))


@settings(max_examples=200, deadline=None)
@given(ops=op_strategy())
# one held view across each kind of later write, truncation and delete
@example(ops=[("read", "a", 0, 4), ("overwrite", "a", 1, 8, 7)])
@example(ops=[("read", "a", 0, 4), ("append", "a", 8, 7)])
@example(ops=[("read", "a", 1, 3), ("gap", "a", 5, 8, 7)])
@example(ops=[("read", "a", 0, 4), ("create", "a", True), ("append", "a", 8, 7)])
@example(ops=[("read", "a", 0, 4), ("delete", "a"), ("create", "a", False),
              ("append", "a", 8, 7)])
def test_store_matches_bytes_model_and_views_are_snapshots(ops):
    store = MemoryStore()
    model = {}
    held = []  # (view, the bytes it showed when taken)
    for k, path in enumerate(PATHS):  # start populated: most ops need bytes
        model[path] = _payload(16, 100 * k)
        store.create(path)
        store.write(path, 0, model[path], 16)

    def write(path, offset, data):
        store.write(path, offset, memoryview(data), len(data))
        old = model[path]
        grown = old + bytes(max(0, offset + len(data) - len(old)))
        model[path] = grown[:offset] + data + grown[offset + len(data):]

    for op in ops:
        kind, path = op[0], op[1]
        if kind == "create":
            store.create(path, truncate=op[2])
            if op[2] or path not in model:
                model[path] = b""
        elif path not in model:
            assert not store.exists(path)
            with pytest.raises(KeyError):
                store.size(path)
            continue
        elif kind == "append":
            write(path, len(model[path]), _payload(op[2], op[3]))
        elif kind == "overwrite":
            write(path, len(model[path]) * op[2] // 4, _payload(op[3], op[4]))
        elif kind == "gap":
            write(path, len(model[path]) + op[2], _payload(op[3], op[4]))
        elif kind == "read":
            size = len(model[path])
            lo, hi = sorted((size * op[2] // 4, size * op[3] // 4))
            view = store.read(path, lo, hi - lo)
            assert view == model[path][lo:hi]
            held.append((view, bytes(view)))
            with pytest.raises(ValueError):
                store.read(path, lo, size - lo + 1)
        elif kind == "read_all":
            assert store.read_all(path) == model[path]
        elif kind == "delete":
            store.delete(path)
            del model[path]

        assert store.paths() == sorted(model)
        assert store.total_bytes() == sum(map(len, model.values()))
        for name, content in model.items():
            assert store.size(name) == len(content)
            assert store.read_all(name) == content
        for view, snapshot in held:
            assert view.readonly
            assert view == snapshot

    for view, _ in held:
        if len(view):
            with pytest.raises(TypeError):
                view[0] = 0


def test_truncating_rewrite_allocates_nothing_unless_a_view_pins_it():
    """The "w" reopen of every timestep rewrite: each write is one copy
    into the allocation the file already has -- no temporary, no
    regrowth -- when the file is unobserved; a fresh buffer, and an
    intact snapshot, when a read view is still held."""
    n = 1 << 16
    old, new = bytes([1]) * n, memoryview(bytes([2]) * n)
    store = MemoryStore()
    store.create("f")
    for k in range(4):
        store.write("f", k * n, old, n)

    tracemalloc.start()
    try:
        store.create("f", truncate=True)
        assert store.size("f") == 0 and store.read_all("f") == b""
        for k in range(3):
            store.write("f", k * n, new, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n // 4
    assert store.read_all("f") == bytes(new) * 3
    # what the truncation left behind the new EOF never comes back
    store.write("f", 3 * n + 2, b"!", 1)
    assert store.read_all("f")[3 * n:] == b"\x00\x00!"

    view = store.read("f", 0, n)
    store.create("f", truncate=True)
    store.write("f", 0, old, n)
    assert view == new and store.read_all("f") == old
