"""Static check of the message protocol, Panda's and the baselines',
against its table (PL101-PL104).

The protocol is stated once, as :data:`repro.core.protocol.MESSAGES`:
one row per tag, naming the roles that send and take it.  Each scanned
module plays one role (:data:`DEFAULT_ROLES`), and every site naming a
tag is measured against the rows:

- **PL101** a send site names a tag with no row, or one its module's
  role may not send;
- **PL102** a receive site names a tag its module's role may not take;
- **PL103** a row (or ``Tags`` member) has no send site, or no listen
  set or receive site takes it -- dead protocol surface;
- **PL104** a guarded-by cycle, a potential deadlock: *U* is guarded by
  *T* when every send site of *U* follows a blocking single-tag recv of
  *T* in its function, so mutually guarded peers can both block.

Sites are ``send`` / ``bcast_send`` (tag: argument 2) and ``recv`` /
``try_recv`` / ``match_pred`` (``tag=`` / ``tags=``; ``try_recv`` never
blocks, so guards nothing), naming ``Tags.X`` in that argument.  Tags
read off the table count by derivation: a module calling
``listen_tags`` takes every control-plane row addressed to its role,
one reading ``EXCHANGE_TAGS`` sends and takes its side of each piece
exchange.  The table is the checked tree's own, not the installed one.
"""

from __future__ import annotations

import ast
import sys
import types
from collections import namedtuple
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, FrozenSet, Iterator, List, Sequence, Set, Tuple

from repro.analysis.findings import Finding

__all__ = ["ProtocolReport", "check_tree", "check_sources", "parse_tags"]

#: modules checked against the table, repo-relative, and their roles.
DEFAULT_ROLES = {
    "src/repro/core/client.py": "client",
    "src/repro/core/server.py": "server",
    "src/repro/core/runtime.py": "runtime",
    "src/repro/baselines/common.py": "baseline",
    "src/repro/baselines/two_phase.py": "baseline",
    "src/repro/baselines/daemon.py": "daemon",
}

DEFAULT_PROTOCOL = "src/repro/core/protocol.py"

_Stream = List[Tuple[str, FrozenSet[str]]]
_Site = namedtuple("_Site", "tags path line func")  # one send/recv site


@dataclass
class ProtocolReport:
    """Everything the checker learned, for tests."""

    tags: Dict[str, Tuple[int, int]]  #: name -> (value, def line)
    sends: List[_Site]  #: sites naming their tags
    recvs: List[_Site]
    sent: FrozenSet[str]  #: tags with a send site, named or derived
    taken: FrozenSet[str]  #: tags some receive site or listen set takes
    guards: Dict[str, FrozenSet[str]]  #: sent tag -> tags guarding it
    findings: List[Finding]


def parse_tags(source: str, rel_path: str) -> Dict[str, Tuple[int, int]]:
    """``Tags`` class members: name -> (value, line)."""
    for node in ast.walk(ast.parse(source, filename=rel_path)):
        if isinstance(node, ast.ClassDef) and node.name == "Tags":
            return {stmt.targets[0].id: (stmt.value.value, stmt.lineno)
                    for stmt in node.body
                    if isinstance(stmt, ast.Assign)
                    and isinstance(stmt.targets[0], ast.Name)
                    and isinstance(stmt.value, ast.Constant)}
    return {}


def _load_table(source: str, rel_path: str, name: str) -> Any:
    """The module-level table ``name`` of the module ``source``, run as
    a module: the checked tree's own table, not the installed one."""
    mod = types.ModuleType("_panda_table_under_check")
    sys.modules[mod.__name__] = mod
    try:
        exec(compile(source, rel_path, "exec"), mod.__dict__)
    finally:
        del sys.modules[mod.__name__]
    return getattr(mod, name)


def _tags_in(node: ast.AST) -> FrozenSet[str]:
    return frozenset(
        n.attr for n in ast.walk(node)
        if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
        and n.value.id == "Tags")


def _calls(node: ast.AST) -> Iterator[ast.Call]:
    """Calls in one function body in source order, skipping nested
    functions, classes and lambdas (scanned on their own)."""
    for n in ast.iter_child_nodes(node):
        if not isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.Lambda, ast.ClassDef)):
            if isinstance(n, ast.Call):
                yield n
            yield from _calls(n)


def _scan(tree: ast.Module, rel: str, sends: List[_Site],
          recvs: List[_Site], streams: List[_Stream]) -> None:
    """Collect the module's send and receive sites naming their tags,
    and one source-ordered event stream per function for PL104."""
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stream: _Stream = []
        for call in _calls(func):
            method = getattr(call.func, "attr", None)
            if method in ("send", "bcast_send") and len(call.args) >= 2:
                tags = _tags_in(call.args[1])
                if tags:
                    sends.append(_Site(tags, rel, call.lineno, func.name))
                    stream.append(("send", tags))
            elif method in ("recv", "try_recv", "match_pred"):
                tags = frozenset().union(*(
                    _tags_in(kw.value) for kw in call.keywords
                    if kw.arg in ("tag", "tags")))
                if tags:
                    recvs.append(_Site(tags, rel, call.lineno, func.name))
                    if method != "try_recv":
                        stream.append(("recv", tags))
        streams.append(stream)


def _guard_edges(streams: Sequence[_Stream]) -> Dict[str, FrozenSet[str]]:
    """``U -> {T}`` where *every* send site of U follows a single-tag
    recv of T in its function's source-ordered event stream."""
    per_send: Dict[str, List[FrozenSet[str]]] = {}
    for stream in streams:
        seen_single: FrozenSet[str] = frozenset()
        for kind, tags in stream:
            if kind == "send":
                for tag in tags:
                    per_send.setdefault(tag, []).append(seen_single)
            elif len(tags) == 1:
                seen_single |= tags
    # a tag cannot meaningfully guard itself
    return {tag: common for tag, guard_sets in per_send.items()
            if (common := frozenset.intersection(*guard_sets) - {tag})}


def _find_cycles(guards: Dict[str, FrozenSet[str]]) -> List[Tuple[str, ...]]:
    """Simple cycles in the guarded-by graph, canonicalised (smallest
    member first) and deduplicated."""
    cycles: "set[Tuple[str, ...]]" = set()

    def dfs(start: str, node: str, path: Tuple[str, ...]) -> None:
        for nxt in sorted(guards.get(node, ())):
            if nxt == start:
                k = path.index(min(path))
                cycles.add(path[k:] + path[:k])
            elif nxt not in path and len(path) < 8:
                dfs(start, nxt, path + (nxt,))

    for tag in sorted(guards):
        dfs(tag, tag, (tag,))
    return sorted(cycles)


def check_sources(protocol_source: str, protocol_path: str,
                  sources: Dict[str, str],
                  roles: Dict[str, str] = DEFAULT_ROLES) -> ProtocolReport:
    """Check in-memory sources, each playing ``roles[path]`` (the real
    tree and the test fixtures both come through here)."""
    tags = parse_tags(protocol_source, protocol_path)
    name_of = {value: name for name, (value, _line) in tags.items()}
    rows = {name_of.get(m.tag, str(m.tag)): m
            for m in _load_table(protocol_source, protocol_path, "MESSAGES")}
    replies = {name_of.get(m.reply) for m in rows.values()}
    ends = {name: (m.sender.split(".")[0], m.receiver.split(".")[0])  # modules
            for name, m in rows.items()}
    findings: List[Finding] = []
    sends: List[_Site] = []
    recvs: List[_Site] = []
    streams: List[_Stream] = []
    sent: Set[str] = set()
    taken: Set[str] = set()
    for rel, text in sorted(sources.items()):
        try:
            tree = ast.parse(text, filename=rel)
        except SyntaxError as exc:
            findings.append(Finding("PL101", rel, exc.lineno or 1,
                                    f"file does not parse: {exc.msg}"))
            continue
        role = roles[rel]
        n_sends, n_recvs = len(sends), len(recvs)
        _scan(tree, rel, sends, recvs, streams)
        for rule, sites, end, side, verb in (
                ("PL101", sends[n_sends:], 0, "sender", "sent"),
                ("PL102", recvs[n_recvs:], 1, "receiver", "received")):
            for site in sites:
                for tag in sorted(site.tags):
                    row = rows.get(tag)
                    if row is None or ends[tag][end] != role:
                        why = (f"its {side} is {getattr(row, side)}" if row
                               else "it has no row in MESSAGES")
                        findings.append(Finding(rule, rel, site.line, (
                            f"tag {tag} is {verb} here (in {site.func}) "
                            f"but {why}")))
        # table-derived sites: listen sets and the piece exchange
        used = {getattr(n, "id", None) or getattr(n, "attr", None)
                for n in ast.walk(tree)}
        for name, row in rows.items():
            if row.exchange is None:
                if "listen_tags" in used and ends[name][1] == role:
                    taken.add(name)
            elif "EXCHANGE_TAGS" in used and (row.reply is not None
                                              or name in replies):
                if ends[name][0] == role:
                    sent.add(name)
                if ends[name][1] == role:
                    taken.add(name)
    sent.update(t for site in sends for t in site.tags)
    taken.update(t for site in recvs for t in site.tags)
    for name in sorted(set(rows) | set(tags)):
        missing = ("has no row in MESSAGES" if name not in rows else
                   "has no send site" if name not in sent else
                   "is taken by no listen set or receive site"
                   if name not in taken else None)
        if missing:
            findings.append(Finding("PL103", protocol_path,
                                    tags.get(name, (0, 1))[1],
                                    f"tag {name} {missing}"))
    guards = _guard_edges(streams)
    for cycle in _find_cycles(guards):
        first = next(s for s in sends if cycle[0] in s.tags)
        findings.append(Finding(
            "PL104", first.path, first.line, "potential deadlock: guarded-"
            f"by cycle {' -> '.join(cycle + cycle[:1])} (each tag's only "
            "senders block on a recv of the next)"))
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return ProtocolReport(tags, sends, recvs, frozenset(sent),
                          frozenset(taken), guards, findings)


def check_tree(root: Path) -> ProtocolReport:
    """Check the tree rooted at ``root`` against its own table."""
    sources = {rel: (root / rel).read_text() for rel in DEFAULT_ROLES
               if (root / rel).is_file()}
    return check_sources((root / DEFAULT_PROTOCOL).read_text(),
                         DEFAULT_PROTOCOL, sources)
