"""AST determinism lints for sim-visible code (rules PL001-PL006, PL008).

The repo's load-bearing guarantee is bit-identical simulated timings:
the golden determinism tests pin per-op elapsed times to exact float
hex.  Anything that lets host state leak into simulated behaviour --
wall-clock reads, unseeded PRNGs, iteration order of unordered
containers, ``id()``-derived ordering -- is a latent determinism bug
even when today's CPython happens to behave.  These rules flag the
hazards *before* they reach the golden tests.

Rules
-----
- **PL001** wall-clock time sources (``time.time``, ``perf_counter``,
  ``monotonic``, ``process_time``, ``datetime.now``/``utcnow``/
  ``today``) anywhere in ``src/repro``: host time is measured from
  outside the package, by ``perf/``.
- **PL002** unseeded module-level ``random.*`` / ``numpy.random.*``
  calls.  Seeded instances (``random.Random(seed)``,
  ``numpy.random.default_rng(seed)``) are the sanctioned pattern, cf.
  :mod:`repro.faults`.
- **PL003** iteration over an unordered value (``set``/``frozenset``
  literal, constructor, set algebra, or ``dict.keys()``) in an
  ordering-sensitive sink: ``for`` loops, list/dict/generator
  comprehensions, ``str.join``.  Building a *set* from a set is
  order-insensitive and exempt; wrap in ``sorted(...)`` to fix.
- **PL004** ordering by object identity: ``sorted(..., key=id)`` or
  ``list.sort(key=id)`` -- id values are allocation addresses.
- **PL005** ``id()``-keyed containers (``d[id(x)]``, ``{id(x): ...}``,
  ``s.add(id(x))``): identity keys make iteration order and collisions
  depend on the allocator.
- **PL006** float accumulation over an unordered iterable
  (``sum(...)`` over a set-typed value): float addition is not
  associative, so the result depends on iteration order.
- **PL008** ``int()`` truncation of an arithmetic expression used as a
  sequence index (``xs[int(q * n)]``, or through a local:
  ``k = int(q * n) - 1; xs[k]``): float representation error decides
  the element (``int(0.29 * 100) == 28``) -- the exact
  quantile-rounding hazard fixed by hand in :mod:`repro.obs.slo`.
  Use an explicit nearest-rank integer expression instead.

The analysis is deliberately intraprocedural and syntactic: it tracks
local names assigned unordered values (or truncated indices) within one
scope and never guesses across calls.  What it flags it is sure about structurally;
intentional sites go in the ``pyproject.toml`` allowlist *with a
reason* (see :mod:`repro.analysis.findings`).
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Set

from repro.analysis.findings import Finding

__all__ = ["lint_source", "lint_file", "lint_tree"]

_TIME_CALLS = {
    "time.time",
    "time.time_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.process_time",
    "time.process_time_ns",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

#: module-level random entry points that are *allowed* (seeded
#: instances and their plumbing).
_RANDOM_OK = {
    "random.Random",
    "random.SystemRandom",  # never sim-visible; crypto randomness
    "numpy.random.default_rng",
    "numpy.random.Generator",
    "numpy.random.SeedSequence",
}

_SET_CONSTRUCTORS = {"set", "frozenset"}
_SET_BINOPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)


class _Scope:
    """Names assigned unordered (set-typed) values, and names assigned
    an ``int()``-truncated float expression, in one function or module
    body -- minus names that are ever re-assigned a clean value
    (conservatively laundered)."""

    def __init__(self) -> None:
        self.unordered: Set[str] = set()
        self.truncated: Set[str] = set()
        self.laundered: Set[str] = set()

    def is_unordered(self, name: str) -> bool:
        return name in self.unordered and name not in self.laundered

    def is_truncated(self, name: str) -> bool:
        return name in self.truncated and name not in self.laundered


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for an attribute/name chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class _FileLinter(ast.NodeVisitor):
    def __init__(self, rel_path: str) -> None:
        self.rel_path = rel_path
        self.findings: List[Finding] = []
        #: import aliases: local name -> canonical dotted module.
        self.aliases: dict[str, str] = {}
        self.scopes: List[_Scope] = [_Scope()]

    # -- bookkeeping -------------------------------------------------------
    def _flag(self, rule: str, node: ast.AST, message: str) -> None:
        self.findings.append(Finding(
            rule, self.rel_path, getattr(node, "lineno", 1), message,
        ))

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.aliases[alias.asname or alias.name.split(".")[0]] = \
                alias.name if alias.asname else alias.name.split(".")[0]
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module and node.level == 0:
            for alias in node.names:
                self.aliases[alias.asname or alias.name] = \
                    f"{node.module}.{alias.name}"
        self.generic_visit(node)

    def _resolve(self, node: ast.AST) -> Optional[str]:
        """Resolve a call target to its canonical dotted name through
        the file's import aliases (``np`` -> ``numpy``)."""
        dotted = _dotted(node)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        canonical = self.aliases.get(head)
        if canonical is None:
            return dotted
        return f"{canonical}.{rest}" if rest else canonical

    # -- scope handling ----------------------------------------------------
    def _enter_scope(self, node: ast.AST, body: Sequence[ast.stmt]) -> None:
        scope = _Scope()
        self.scopes.append(scope)
        collector = _UnorderedNameCollector(self, scope)
        for stmt in body:
            collector.visit(stmt)
        for stmt in body:
            self.visit(stmt)
        self.scopes.pop()

    def visit_Module(self, node: ast.Module) -> None:
        # imports must be known before the name collector runs, so
        # pre-scan them at every scope depth
        for stmt in ast.walk(node):
            if isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    self.aliases.setdefault(
                        alias.asname or alias.name.split(".")[0],
                        alias.name if alias.asname else alias.name.split(".")[0],
                    )
            elif isinstance(stmt, ast.ImportFrom):
                if stmt.module and stmt.level == 0:
                    for alias in stmt.names:
                        self.aliases.setdefault(
                            alias.asname or alias.name,
                            f"{stmt.module}.{alias.name}",
                        )
        collector = _UnorderedNameCollector(self, self.scopes[0])
        for stmt in node.body:
            collector.visit(stmt)
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._enter_scope(node, node.body)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._enter_scope(node, node.body)

    # -- unordered-value classification ------------------------------------
    def _is_unordered(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Set) or isinstance(node, ast.SetComp):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in _SET_CONSTRUCTORS:
                return True
            if (isinstance(func, ast.Attribute) and func.attr == "keys"
                    and not node.args):
                return True
            return False
        if isinstance(node, ast.Name):
            return any(s.is_unordered(node.id) for s in reversed(self.scopes))
        if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_BINOPS):
            return self._is_unordered(node.left) or self._is_unordered(node.right)
        if isinstance(node, ast.IfExp):
            return self._is_unordered(node.body) or self._is_unordered(node.orelse)
        return False

    def _describe(self, node: ast.AST) -> str:
        try:
            return ast.unparse(node)
        except Exception:  # pragma: no cover - unparse is total on 3.9+
            return "<expr>"

    # -- sinks -------------------------------------------------------------
    def visit_For(self, node: ast.For) -> None:
        if self._is_unordered(node.iter):
            self._flag(
                "PL003", node.iter,
                f"for-loop iterates unordered value "
                f"{self._describe(node.iter)!r}; wrap in sorted(...) or "
                "restructure",
            )
        self.generic_visit(node)

    def _check_comprehension(self, node: ast.AST,
                             gens: Iterable[ast.comprehension]) -> None:
        for gen in gens:
            if self._is_unordered(gen.iter):
                self._flag(
                    "PL003", gen.iter,
                    f"comprehension iterates unordered value "
                    f"{self._describe(gen.iter)!r}; wrap in sorted(...)",
                )

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._check_comprehension(node, node.generators)
        self.generic_visit(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._check_comprehension(node, node.generators)
        self.generic_visit(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        # order-safe when directly consumed by sorted()/sum()/... --
        # those callers inspect the generator themselves in visit_Call
        self._check_comprehension(node, node.generators)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        resolved = self._resolve(node.func)
        # PL001: wall-clock sources
        if resolved is not None:
            if resolved in _TIME_CALLS:
                self._flag(
                    "PL001", node,
                    f"wall-clock call {resolved}() is invisible to the "
                    "simulated clock; use sim.now / Timeout",
                )
            # PL002: module-level PRNG draws
            elif (
                (resolved.startswith("random.")
                 or resolved.startswith("numpy.random."))
                and resolved not in _RANDOM_OK
            ):
                self._flag(
                    "PL002", node,
                    f"unseeded module-level PRNG call {resolved}(); draw "
                    "from a seeded random.Random / default_rng instance "
                    "instead",
                )
        # PL004: key=id ordering
        is_sort = (
            (isinstance(node.func, ast.Name) and node.func.id == "sorted")
            or (isinstance(node.func, ast.Attribute)
                and node.func.attr == "sort")
        )
        if is_sort:
            for kw in node.keywords:
                if (kw.arg == "key" and isinstance(kw.value, ast.Name)
                        and kw.value.id == "id"):
                    self._flag(
                        "PL004", node,
                        "sorting by id() orders by allocation address; "
                        "sort by a content key",
                    )
        # PL005: id()-keyed container mutation via .add/.setdefault/...
        if isinstance(node.func, ast.Attribute) and node.func.attr in (
            "add", "setdefault", "get", "pop", "discard",
        ):
            for arg in node.args[:1]:
                if self._is_id_call(arg):
                    self._flag(
                        "PL005", node,
                        f"{node.func.attr}(id(...)) keys a container by "
                        "object identity; key by content instead",
                    )
        # PL003/PL006: ordering-sensitive consumers of unordered values
        if isinstance(node.func, ast.Attribute) and node.func.attr == "join":
            for arg in node.args[:1]:
                if self._is_unordered(arg) or self._gen_over_unordered(arg):
                    self._flag(
                        "PL003", node,
                        "str.join over an unordered iterable concatenates "
                        "in nondeterministic order; sort first",
                    )
        if isinstance(node.func, ast.Name) and node.func.id == "sum":
            for arg in node.args[:1]:
                if self._is_unordered(arg) or self._gen_over_unordered(arg):
                    self._flag(
                        "PL006", node,
                        "sum() over an unordered iterable: float addition "
                        "is order-dependent; sum over a sorted sequence",
                    )
        self.generic_visit(node)

    def _gen_over_unordered(self, node: ast.AST) -> bool:
        if isinstance(node, ast.GeneratorExp):
            return any(self._is_unordered(g.iter) for g in node.generators)
        return False

    @staticmethod
    def _is_id_call(node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "id"
            and len(node.args) == 1
        )

    @staticmethod
    def _is_truncating_index(node: ast.AST) -> bool:
        """``int(<arithmetic>)`` -- the quantile-rounding hazard: a
        float product/quotient truncated into a sequence index (e.g.
        ``xs[int(q * n)]``), where float representation error decides
        which element is read (``int(0.29 * 100)`` is 28).  Plain
        ``int(name)`` casts and base conversions are not flagged."""
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "int"
            and len(node.args) == 1
            and not node.keywords
        ):
            return False
        return any(
            isinstance(sub, ast.BinOp)
            and isinstance(sub.op, (ast.Mult, ast.Div, ast.Pow))
            for sub in ast.walk(node.args[0])
        )

    def _is_truncated_name(self, node: ast.AST) -> bool:
        return isinstance(node, ast.Name) and any(
            s.is_truncated(node.id) for s in self.scopes)

    def _truncates(self, node: ast.AST) -> bool:
        """Does the assigned value ``node`` carry an ``int()``-truncated
        float anywhere (``k = int(q * n) - 1``), inline or through
        another such local?"""
        return any(self._is_truncating_index(sub)
                   or self._is_truncated_name(sub)
                   for sub in ast.walk(node))

    # PL005: id()-keyed subscripts; PL008: int()-truncated float indices
    def visit_Subscript(self, node: ast.Subscript) -> None:
        if self._is_id_call(node.slice):
            self._flag(
                "PL005", node,
                "container indexed by id(...): identity keys depend on "
                "the allocator; key by content instead",
            )
        if (self._is_truncating_index(node.slice)
                or self._is_truncated_name(node.slice)):
            self._flag(
                "PL008", node,
                "sequence indexed by int() of an arithmetic expression "
                "(inline or via a local): float truncation picks the "
                "element by representation error (int(0.29 * 100) == "
                "28); use an explicit nearest-rank integer expression "
                "(round/ceil with // )",
            )
        self.generic_visit(node)

    def visit_Dict(self, node: ast.Dict) -> None:
        for key in node.keys:
            if key is not None and self._is_id_call(key):
                self._flag(
                    "PL005", node,
                    "dict literal keyed by id(...); key by content instead",
                )
        self.generic_visit(node)

    def visit_Set(self, node: ast.Set) -> None:
        for elt in node.elts:
            if self._is_id_call(elt):
                self._flag(
                    "PL005", node,
                    "set literal of id(...) values; store content keys "
                    "instead",
                )
        self.generic_visit(node)


class _UnorderedNameCollector(ast.NodeVisitor):
    """First pass over one scope body: which local names hold unordered
    values, and which hold truncated float indices?  Does not descend
    into nested function scopes."""

    def __init__(self, linter: _FileLinter, scope: _Scope) -> None:
        self.linter = linter
        self.scope = scope

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass  # nested scope: handled by its own collector

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        pass

    def visit_Lambda(self, node: ast.Lambda) -> None:
        pass

    def _classify(self, targets: Iterable[ast.AST], value: ast.AST) -> None:
        names = [t.id for t in targets if isinstance(t, ast.Name)]
        if not names:
            return
        if self.linter._is_unordered(value):
            self.scope.unordered.update(names)
        elif self.linter._truncates(value):
            self.scope.truncated.update(names)
        else:
            # assigned something clean at least once: launder it so a
            # `s = sorted(s)` rebind stops the taint
            self.scope.laundered.update(
                n for n in names
                if n in self.scope.unordered or n in self.scope.truncated
            )

    def visit_Assign(self, node: ast.Assign) -> None:
        self._classify(node.targets, node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._classify([node.target], node.value)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if isinstance(node.op, _SET_BINOPS) and \
                self.linter._is_unordered(node.value):
            self._classify([node.target], node.value)


def lint_source(source: str, rel_path: str) -> List[Finding]:
    """Lint one file's source text; returns findings (PL00x only)."""
    try:
        tree = ast.parse(source, filename=rel_path)
    except SyntaxError as exc:
        return [Finding("PL001", rel_path, exc.lineno or 1,
                        f"file does not parse: {exc.msg}")]
    linter = _FileLinter(rel_path)
    linter.visit(tree)
    linter.findings.sort(key=lambda f: (f.line, f.rule))
    return linter.findings


def lint_file(path: Path, root: Path) -> List[Finding]:
    rel = path.relative_to(root).as_posix()
    return lint_source(path.read_text(), rel)


def lint_tree(
    root: Path,
    package: str = "src/repro",
    cache: Optional["object"] = None,
) -> List[Finding]:
    """Lint every ``.py`` file under ``root/package``.  ``cache`` is a
    :class:`~repro.analysis.findings.LintCache` or None."""
    from repro.analysis.findings import file_digest

    out: List[Finding] = []
    base = root / package
    for path in sorted(base.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        if cache is not None:
            digest = file_digest(path)
            hit = cache.get(rel, digest)  # type: ignore[attr-defined]
            if hit is not None:
                out.extend(hit)
                continue
            findings = lint_source(path.read_text(), rel)
            cache.put(rel, digest, findings)  # type: ignore[attr-defined]
            out.extend(findings)
        else:
            out.extend(lint_file(path, root))
    return out
