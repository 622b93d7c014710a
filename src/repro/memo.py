"""Process-wide memos of pure functions, cleared in one call.

Each memo is a :class:`Memo`: a plain ``dict`` (lookups stay the C
``.get``) that registers itself when built and, once it holds
:data:`MAX_ENTRIES` keys, drops the oldest insertion to make room for a
new one.  The memos cache pure functions of an op's shape, so they are
correctness-neutral, but they carry over from one run to the next in a
process: a second run of the same figure hits where the first missed.
:func:`clear_all` empties every registered memo, so exact counter
measurements (``tests/test_counter_pins.py``) start cold without
knowing which memos exist.

Like :mod:`repro.counters`, this module imports nothing from the rest
of the package, so the lowest layers can build memos without cycles.
"""

from __future__ import annotations

from typing import Any, List

__all__ = ["MAX_ENTRIES", "Memo", "clear_all"]

#: bound of every memo.  The working set of any one run is far smaller
#: (at most 30 entries on the paper's full Fig 7/8 grids).
MAX_ENTRIES = 1024

_REGISTRY: List["Memo"] = []


class Memo(dict):
    """A bounded, registered ``dict`` memo; evicts oldest-first."""

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__()
        _REGISTRY.append(self)

    def __setitem__(self, key: Any, value: Any) -> None:
        if len(self) >= MAX_ENTRIES and key not in self:
            del self[next(iter(self))]
        super().__setitem__(key, value)


def clear_all() -> None:
    """Empty every registered memo."""
    for memo in _REGISTRY:
        memo.clear()
