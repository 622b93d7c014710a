"""Tests for the structured trace utilities."""

from repro.sim.trace import Trace, TraceRecord


def make_trace():
    t = Trace()
    t.emit(0.0, "ionode0.disk", "disk_write", nbytes=100, offset=0)
    t.emit(1.0, "ionode0.disk", "disk_write", nbytes=200, offset=100)
    t.emit(2.0, "ionode1.disk", "disk_read", nbytes=50, offset=0)
    t.emit(3.0, "net", "message", src=0, dst=1, nbytes=10)
    return t


def test_len_and_iter():
    t = make_trace()
    assert len(t) == 4
    assert [r.kind for r in t] == [
        "disk_write", "disk_write", "disk_read", "message"
    ]


def test_select_by_kind():
    t = make_trace()
    assert len(t.select(kind="disk_write")) == 2
    assert t.select(kind="nothing") == []


def test_select_by_source_and_prefix():
    t = make_trace()
    assert len(t.select(source="ionode0.disk")) == 2
    assert len(t.select(source_prefix="ionode")) == 3
    assert len(t.select(kind="disk_write", source="ionode1.disk")) == 0


def test_count_and_counts_by_kind():
    t = make_trace()
    assert t.count("disk_write") == 2


def test_total_sums_detail_key():
    t = make_trace()
    assert t.total("disk_write", "nbytes") == 300
    assert t.total("disk_read", "nbytes") == 50
    assert t.total("disk_write", "missing") == 0


def test_sources():
    t = make_trace()
    assert t.sources() == {"ionode0.disk", "ionode1.disk", "net"}


def test_record_getitem():
    rec = TraceRecord(0.0, "x", "k", {"a": 1})
    assert rec["a"] == 1
    assert rec.time == 0.0
