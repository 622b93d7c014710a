"""Shared plumbing of the ``panda-lint`` static-analysis suite.

A :class:`Finding` is one reported defect: a rule id, a location, and a
message.  The suite's rules are deliberately *project-specific* -- they
encode the repo's load-bearing invariant (bit-identical simulated
timings over a hand-rolled message protocol) rather than generic style.

Allowlist
---------
Intentional violations are suppressed via ``pyproject.toml``::

    [tool.panda-lint]
    allow = [
        {path = "src/repro/foo.py", rule = "PL003",
         reason = "why the unordered iteration cannot leak"},
    ]

Every entry *must* carry a non-empty ``reason``; a reasonless entry is
itself a lint error (PL000).  ``path`` is matched as a suffix of the
POSIX-style relative path, so entries stay valid from any checkout
directory.  An allowlist entry that suppresses nothing is reported as
stale (PL000) so the list cannot rot.
"""

from __future__ import annotations

import re
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Dict, List, Tuple

__all__ = [
    "AllowEntry",
    "Finding",
    "apply_allowlist",
    "load_allowlist",
]

#: rule catalogue (documented in DESIGN.md section 12).
RULES: Dict[str, str] = {
    "PL000": "allowlist hygiene (missing reason / stale entry)",
    "PL001": "wall-clock time source in sim-visible code",
    "PL002": "unseeded module-level random call",
    "PL003": "iteration over an unordered set/frozenset/dict-keys value",
    "PL004": "ordering by id() (sorted/sort key=id)",
    "PL005": "id()-keyed container",
    "PL006": "float accumulation over an unordered iterable",
    "PL007": "per-event attribute/dict lookup in the engine dispatch loop",
    "PL008": "int() truncation of an arithmetic float index into a sequence",
    "PL101": "protocol: send site the MESSAGES table does not allow",
    "PL102": "protocol: receive site the MESSAGES table does not allow",
    "PL103": "protocol: dead row (never sent, or never taken)",
    "PL104": "protocol: potential deadlock cycle (mutually guarded tags)",
    "PL105": "trace: emit site the RECORDS table does not describe, or a "
             "row no site emits",
    # dynamic findings from panda-mc (repro.analysis.mc), reported per
    # explored schedule rather than per source line
    "PL200": "model check: error raised under a reordered schedule",
    "PL201": "model check: result depends on dispatch order (divergence)",
    "PL202": "model check: deadlock reachable under some schedule",
    "PL203": "model check: orphan messages queued at quiescence",
}


@dataclass(frozen=True)
class Finding:
    """One reported defect."""

    rule: str
    path: str  #: POSIX-style path relative to the repo root
    line: int
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"

    def as_json(self) -> Dict[str, Any]:
        return asdict(self)


@dataclass(frozen=True)
class AllowEntry:
    """One ``[tool.panda-lint]`` suppression."""

    path: str
    rule: str
    reason: str

    def matches(self, finding: Finding) -> bool:
        if self.rule != finding.rule:
            return False
        return finding.path.endswith(self.path)


def _parse_allow_fallback(text: str) -> List[Dict[str, str]]:
    """Minimal parser for the ``[tool.panda-lint]`` section on Python
    3.10 (no :mod:`tomllib`): an ``allow = [...]`` array of inline
    tables with double-quoted string values only."""
    m = re.search(r"^\[tool\.panda-lint\]\s*$(.*?)(?=^\[|\Z)", text,
                  re.MULTILINE | re.DOTALL)
    if m is None:
        return []
    body = m.group(1)
    entries: List[Dict[str, str]] = []
    for table in re.findall(r"\{([^{}]*)\}", body):
        entry: Dict[str, str] = {}
        for key, value in re.findall(r'(\w+)\s*=\s*"([^"]*)"', table):
            entry[key] = value
        if entry:
            entries.append(entry)
    return entries


def load_allowlist(pyproject: Path) -> Tuple[List[AllowEntry], List[Finding]]:
    """Read the allowlist; malformed entries come back as PL000
    findings (reasonless suppressions are themselves defects)."""
    if not pyproject.is_file():
        return [], []
    text = pyproject.read_text()
    try:
        import tomllib

        raw = (
            tomllib.loads(text)
            .get("tool", {})
            .get("panda-lint", {})
            .get("allow", [])
        )
    except ModuleNotFoundError:  # Python 3.10
        raw = _parse_allow_fallback(text)
    entries: List[AllowEntry] = []
    problems: List[Finding] = []
    for i, item in enumerate(raw):
        path = str(item.get("path", ""))
        rule = str(item.get("rule", ""))
        reason = str(item.get("reason", "")).strip()
        where = Finding("PL000", pyproject.name, 1, "")
        if not path or not rule:
            problems.append(Finding(
                "PL000", where.path, 1,
                f"allow entry #{i + 1} needs both 'path' and 'rule'",
            ))
            continue
        if not reason:
            problems.append(Finding(
                "PL000", where.path, 1,
                f"allow entry #{i + 1} ({rule} at {path}) has no reason; "
                "every suppression must say why",
            ))
            continue
        entries.append(AllowEntry(path, rule, reason))
    return entries, problems


def apply_allowlist(
    findings: List[Finding], entries: List[AllowEntry], pyproject_name: str
) -> Tuple[List[Finding], List[Finding]]:
    """Split findings into (kept, suppressed); unused entries are
    reported as stale PL000 findings appended to *kept*."""
    kept: List[Finding] = []
    suppressed: List[Finding] = []
    used = [False] * len(entries)
    for f in findings:
        hit = None
        for i, entry in enumerate(entries):
            if entry.matches(f):
                hit = i
                break
        if hit is None:
            kept.append(f)
        else:
            used[hit] = True
            suppressed.append(f)
    for entry, was_used in zip(entries, used):
        if not was_used:
            kept.append(Finding(
                "PL000", pyproject_name, 1,
                f"stale allow entry: {entry.rule} at {entry.path} "
                "suppresses nothing; remove it",
            ))
    return kept, suppressed
