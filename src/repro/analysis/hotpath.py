"""PL007: per-event lookups inside the engine's batched dispatch loop.

The engine's throughput contract (DESIGN.md section 9) is that the
drain loop in :meth:`Simulator.run` touches only locals per event: every attribute read (``self._heap``,
``heapq.heappop``, bound methods) is hoisted to a local before the
``while``.  A Python-level attribute or dict lookup inside the loop is
paid once per dispatched event -- at ~400k events for a fig8 sweep,
one stray ``self.x`` read is a measurable regression that no unit test
catches and a host-time benchmark only catches noisily.

This rule pins the contract structurally: any ``a.b`` *load* inside
the inner ``while`` of the scanned methods is a finding unless its
dotted form is in the sanctioned set below.  Attribute *stores*
(``self._now = ...``) are exempt -- the mirrored-local pattern
(``self._now = now = t``) still has to publish the clock for callbacks
that read ``sim.now``.  Subscripts on locals (``heap[0]``, ``e[2]``)
are list indexing, not dict lookups, and are exempt; subscripts on
attribute chains (``self._heap[0]``) are caught via their inner
attribute load.

``_run_instrumented`` is deliberately not scanned: it is the slow twin
(panda-mc's controlled dispatch) and trades per-event cost for
observability by design.  ``step()`` is not scanned either -- the
public single-step API pays its per-call lookups by nature; the drain
loop exists precisely so ``run()`` does not go through it.

Sanctioned lookups (the allowlist) carry their reasons inline in
``SANCTIONED``.  Anything new either gets hoisted or gets an entry
here with a reason -- same policy as the ``pyproject.toml`` allowlist,
but in code because the set is tiny and engine-specific.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import List, Optional

from repro.analysis.findings import Finding

__all__ = ["check_engine", "ENGINE_PATH", "SCANNED_METHODS", "SANCTIONED"]

#: the one file this rule applies to, repo-relative.
ENGINE_PATH = "src/repro/sim/engine.py"

#: Simulator methods whose inner while-loop is held to the
#: locals-only contract.
SCANNED_METHODS = ("run",)

#: dotted attribute loads that are allowed inside the drain loop,
#: each with the reason it is exempt from hoisting.
SANCTIONED = {
    # unhandled-failure branch: reached at most once, then raises
    "self._raise_unhandled",
    # run(until=...) put-back of the first not-yet-due entry: executed
    # once per run() call, on the stop branch, never per event
    "heapq.heappush",
}


def _dotted(node: ast.AST) -> Optional[str]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _scan_method(fn: ast.FunctionDef) -> List[Finding]:
    out: List[Finding] = []
    loops = [n for n in ast.walk(fn) if isinstance(n, ast.While)]
    for loop in loops:
        for node in ast.walk(loop):
            if not (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)):
                continue
            dotted = _dotted(node) or f"<expr>.{node.attr}"
            if dotted in SANCTIONED:
                continue
            out.append(Finding(
                "PL007", ENGINE_PATH, node.lineno,
                f"per-event attribute lookup {dotted!r} inside "
                f"Simulator.{fn.name}'s dispatch loop; hoist it to a "
                "local before the while (or sanction it in "
                "repro.analysis.hotpath with a reason)",
            ))
    return out


def check_engine(root: Path) -> List[Finding]:
    """Lint the engine's drain loop; returns PL007 findings."""
    path = root / ENGINE_PATH
    if not path.exists():
        return []
    tree = ast.parse(path.read_text(), filename=str(path))
    findings: List[Finding] = []
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and cls.name == "Simulator":
            for item in cls.body:
                if (isinstance(item, ast.FunctionDef)
                        and item.name in SCANNED_METHODS):
                    findings.extend(_scan_method(item))
    findings.sort(key=lambda f: (f.line, f.rule))
    return findings
