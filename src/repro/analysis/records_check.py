"""Static check of every trace emit site against the record table
(PL105).

Every trace record kind is described once, as
:data:`repro.obs.records.RECORDS`.  A site is a call of ``Trace.emit``
(the kind is its third argument) or of a wrapper that emits for its
module -- ``_mark``, ``_mark_op``, ``_sched_trace`` and
``FaultInjector._emit`` (the first argument).  A site's kinds are the
string literals written there, both arms of a conditional included.
PL105 reports:

- a site whose kind has no row, whose module is not its row's layer,
  or that names a detail field its row does not list;
- a site whose kind is not a literal, outside the wrappers' own bodies;
- a row no site emits.

Sites are found by the protocol check's walk over every function of
every module under ``src/repro``.  The table is the checked tree's own,
not the installed one.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Set

from repro.analysis.findings import Finding
from repro.analysis.protocol_check import _calls, _load_table

__all__ = ["check_sources", "check_tree"]

DEFAULT_RECORDS = "src/repro/obs/records.py"

#: wrappers taking the kind as their first argument
WRAPPERS = frozenset({"_mark", "_mark_op", "_sched_trace", "_emit"})


def _kinds(node: ast.AST) -> Optional[FrozenSet[str]]:
    """The literal kinds ``node`` can name, or None if any is not one."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return frozenset({node.value})
    if isinstance(node, ast.IfExp):
        body, orelse = _kinds(node.body), _kinds(node.orelse)
        if body is not None and orelse is not None:
            return body | orelse
    return None


def check_sources(table_source: str, table_path: str,
                  sources: Dict[str, str]) -> List[Finding]:
    """Check in-memory ``sources`` (repo-relative path -> text) against
    the ``RECORDS`` of ``table_source``."""
    rows = _load_table(table_source, table_path, "RECORDS")
    findings: List[Finding] = []
    emitted: Set[str] = set()
    for rel, text in sorted(sources.items()):
        layer = rel.removeprefix("src/repro/").removesuffix(".py")
        layer = layer.replace("/", ".")
        for func in ast.walk(ast.parse(text, filename=rel)):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for call in _calls(func):
                method = getattr(call.func, "attr", None)
                at = 2 if method == "emit" else 0 if method in WRAPPERS else -1
                if at < 0 or len(call.args) <= at:
                    continue
                kinds = _kinds(call.args[at])
                if kinds is None:
                    if func.name not in WRAPPERS:
                        findings.append(Finding("PL105", rel, call.lineno, (
                            f"the kind emitted here (in {func.name}) is not "
                            "a literal")))
                    continue
                emitted |= kinds
                named = {kw.arg for kw in call.keywords if kw.arg}
                for kind in sorted(kinds):
                    row = rows.get(kind)
                    extra = sorted(named - set(row.fields)) if row else []
                    why = ("it has no row in RECORDS" if row is None else
                           f"its row's layer is {row.layer}"
                           if row.layer != layer else
                           f"its row lists no field {', '.join(extra)}"
                           if extra else None)
                    if why:
                        findings.append(Finding("PL105", rel, call.lineno, (
                            f"record {kind} is emitted here (in {func.name}) "
                            f"but {why}")))
    lines = {key.value: key.lineno
             for node in ast.walk(ast.parse(table_source))
             if isinstance(node, ast.AnnAssign) and isinstance(node.value, ast.Dict)
             and getattr(node.target, "id", None) == "RECORDS"
             for key in node.value.keys if isinstance(key, ast.Constant)}
    findings += [Finding("PL105", table_path, lines.get(kind, 1),
                         f"record {kind} has no emit site")
                 for kind in sorted(set(rows) - emitted)]
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


def check_tree(root: Path) -> List[Finding]:
    """Check every module under ``root/src/repro`` against the tree's
    own table."""
    sources = {path.relative_to(root).as_posix(): path.read_text()
               for path in sorted((root / "src/repro").rglob("*.py"))}
    return check_sources((root / DEFAULT_RECORDS).read_text(),
                         DEFAULT_RECORDS, sources)
