"""Structured tracing for simulations.

A :class:`Trace` collects :class:`TraceRecord` tuples -- ``(time,
source, kind, detail)`` -- from any subsystem that was handed the trace
object.  Tracing is optional everywhere; a ``None`` trace costs one
``if``.

The benchmark harness uses traces to account message counts, bytes
moved, file-system requests, and per-phase timings; tests use them to
assert protocol properties (e.g. "each server's file writes are
sequential", "servers never message each other").
"""

from __future__ import annotations

from typing import Any, Iterator, NamedTuple, Optional

__all__ = ["Trace", "TraceRecord"]


class TraceRecord(NamedTuple):
    """One traced occurrence; ``rec["key"]`` reads ``rec.detail``."""

    time: float
    source: str
    kind: str
    detail: dict[str, Any]

    def __getitem__(self, key: Any) -> Any:
        if isinstance(key, str):
            return self.detail[key]
        return tuple.__getitem__(self, key)


class Trace:
    """An append-only log of :class:`TraceRecord` with query helpers."""

    def __init__(self) -> None:
        self.records: list[TraceRecord] = []

    def emit(self, time: float, source: str, kind: str, /, **detail: Any) -> None:
        self.records.append(TraceRecord(time, source, kind, detail))

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    # -- queries ---------------------------------------------------------
    def select(
        self,
        kind: Optional[str] = None,
        source: Optional[str] = None,
        source_prefix: Optional[str] = None,
    ) -> list[TraceRecord]:
        out = []
        for rec in self.records:
            if kind is not None and rec.kind != kind:
                continue
            if source is not None and rec.source != source:
                continue
            if source_prefix is not None and not rec.source.startswith(source_prefix):
                continue
            out.append(rec)
        return out

    def count(self, kind: str) -> int:
        return sum(1 for rec in self.records if rec.kind == kind)

    def total(self, kind: str, key: str) -> float:
        """Sum ``detail[key]`` over records of ``kind``."""
        return sum(rec.detail.get(key, 0) for rec in self.records if rec.kind == kind)

    def sources(self) -> set[str]:
        return {rec.source for rec in self.records}
