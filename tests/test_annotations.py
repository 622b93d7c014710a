"""Every name an annotation uses is bound at module scope.

Deferred annotations (``from __future__ import annotations``) are never
evaluated at run time, so a name that is missing from a module's
imports only shows when a tool resolves it: ``typing.get_type_hints``, a linter's F821 or
a type checker.  This check walks each module's annotations, string
annotations included, and requires each name to be a builtin or bound
at module scope -- by an import (including one under
``if TYPE_CHECKING:``), a ``def``, a ``class`` or an assignment.  A
variable annotated inside a function may also use that function's own
names (a local import, as ``PandaRuntime.run_partitioned`` makes).
"""

import ast
import builtins
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent
BUILTINS = frozenset(dir(builtins))


def _bindings(body: list) -> set:
    """Names bound by the statements of one scope, looking into
    ``if``/``try``/``with``/loop blocks but not into nested function or
    class bodies."""
    bound = set()
    todo = list(body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.add((alias.asname or alias.name).split(".")[0])
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            bound.add(node.name)
            continue
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign,
                               ast.For)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                bound.update(n.id for n in ast.walk(target)
                             if isinstance(n, ast.Name))
        for field in ("body", "orelse", "finalbody", "handlers"):
            todo.extend(getattr(node, field, []))
    return bound


def _annotations(body: list, local: frozenset = frozenset()):
    """``(annotation, names bound locally)`` for every annotation in a
    scope's statements.  A function's parameters and return are
    annotated in the enclosing scope; a variable annotation inside a
    function body also sees that function's own imports."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (args.posonlyargs + args.args + args.kwonlyargs
                        + [args.vararg, args.kwarg]):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation, local
            if node.returns is not None:
                yield node.returns, local
            yield from _annotations(node.body,
                                    local | _bindings(node.body))
            continue
        if isinstance(node, ast.AnnAssign):
            yield node.annotation, local
        if isinstance(node, ast.ClassDef):
            yield from _annotations(node.body, local)
            continue
        for field in ("body", "orelse", "finalbody", "handlers"):
            yield from _annotations(getattr(node, field, []), local)


def _names(annotation: ast.expr, line: int):
    """``(name, line)`` for each name the annotation uses; string
    annotations, and strings nested in one, are parsed."""
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            yield node.id, line
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield from _names(ast.parse(node.value, mode="eval").body, line)


def _unbound(source: str) -> list:
    tree = ast.parse(source)
    bound = _bindings(tree.body) | BUILTINS
    return [(name, line) for ann, local in _annotations(tree.body)
            for name, line in _names(ann, ann.lineno)
            if name not in bound and name not in local]


def test_every_annotation_name_is_bound_at_module_scope():
    faults = [f"{path.relative_to(SRC.parent)}:{line}: {name}"
              for path in sorted(SRC.rglob("*.py"))
              for name, line in _unbound(path.read_text())]
    assert not faults, "annotation names bound nowhere:\n" + "\n".join(faults)


def test_the_check_sees_string_and_nested_annotations():
    src = ("from typing import TYPE_CHECKING, Optional\n"
           "if TYPE_CHECKING:\n    from x import Bound\n"
           "def f(a: Optional['Missing'], b: 'Bound') -> 'list[Gone]':\n"
           "    from y import Local\n"
           "    v: Local = None\n"
           "    w: 'Nowhere' = None\n"
           "class C:\n    field: 'Absent'\n")
    assert sorted(_unbound(src)) == [
        ("Absent", 9), ("Gone", 4), ("Missing", 4), ("Nowhere", 7)]
