"""Static cross-reference of the Panda message protocol (PL101-PL104).

The protocol is a closed world: every tag is defined in
``core/protocol.py`` and every send/recv site lives in a known set of
modules.  That makes whole-protocol checking tractable without type
inference:

- **PL101** a tag is sent somewhere but no recv site ever listens for
  it -- the message would sit in a mailbox forever (and its sender's
  partner op would hang or mis-complete).
- **PL102** a recv site listens for a tag nobody sends -- dead handler
  code, usually a refactor leftover.
- **PL103** a tag is defined but neither sent nor received -- dead
  protocol surface; delete it or wire it up.
- **PL104** a potential deadlock cycle: tag *U* is *guarded by* *T*
  when every static send site of *U* is preceded, in straight program
  order within its function, by a blocking single-tag recv of *T*.  If
  *U* is guarded by *T* and *T* is guarded by *U*, both peers can block
  on recv with no matching send in flight.

Sites are recognised syntactically from the repo's communicator idiom:

- sends: ``comm.send(dst, Tags.X, ...)`` and
  ``comm.bcast_send(ranks, Tags.X, ...)`` (tag is argument #2);
- recvs: ``comm.recv(tag=Tags.X)``, ``comm.recv(tags={...})``, the
  hoisted-predicate form
  ``comm.match_pred(tags={...})`` (consumed by a blocking
  ``recv_ev`` loop) and the non-blocking
  ``comm.try_recv(tags=...)`` (a recv site for coverage, but *not* a
  guard for PL104 -- it never blocks, so it cannot deadlock).

A light intraprocedural dataflow resolves the repo's tag-set variables
(``listen = {...} ; listen.add(Tags.RECOVER)``, the set-union growth
forms ``listen |= {Tags.SCHED}`` / ``listen.update(...)`` /
``listen = base | {...}`` that the sharded server loop uses to build
per-role listen sets), tag aliases (``done_tag = Tags.OP_DONE if
master else Tags.CLIENT_DONE``) and tag-valued fields: a bare-name
constructor call with ``wire_tag=Tags.SCHED`` anywhere in the module
makes every ``<expr>.wire_tag`` read resolve to the union of the tags
that field was ever built with (the server's loop discipline carries
its admission-broadcast tag this way).  The dataflow is branch-insensitive
-- growth in an ``if`` arm counts unconditionally -- which
over-approximates listen sets, exactly right for PL101 coverage.  A
variable mutated in a way the dataflow cannot resolve is dropped from
the environment, never left at a stale value: with several shard
masters listening on role-dependent sets, a stale set would report
false PL101/PL102 findings on the sharded send/recv sites.  A
send/recv whose tag cannot be resolved to ``Tags`` members (the generic
plumbing inside ``mpi/comm.py`` itself) is skipped, not guessed.

The analysis is a *heuristic*: it ignores reachability of branches and
loop back-edges.  On this codebase it yields no guard edges: the
classic OP_DONE-guarded-by-SERVER_DONE edge (the master server gathers
completions before reporting) disappeared when the inter-op scheduler
added a second OP_DONE send site that credits completions drained off a
multi-tag listen instead of an inline gather.  Synthetic fixtures in
the test suite keep the guard/cycle detector honest.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.analysis.findings import Finding

__all__ = ["ProtocolReport", "check_tree", "check_sources", "parse_tags"]

#: modules cross-referenced against the tag table, relative to the
#: repo root.  runtime.py matters: the supervisor is SHUTDOWN's sender.
DEFAULT_SCAN = (
    "src/repro/core/client.py",
    "src/repro/core/server.py",
    "src/repro/core/scheduler.py",
    "src/repro/core/recovery.py",
    "src/repro/core/runtime.py",
    "src/repro/mpi/comm.py",
)

DEFAULT_PROTOCOL = "src/repro/core/protocol.py"

_SEND_METHODS = {"send", "bcast_send"}


@dataclass(frozen=True)
class _Site:
    """One send or recv site: which tags, where, in which function."""

    tags: FrozenSet[str]
    path: str
    line: int
    func: str


@dataclass
class ProtocolReport:
    """Everything the checker learned, for tests and --format=json."""

    tags: Dict[str, Tuple[int, int]]  #: name -> (value, def line)
    sends: List[_Site]
    recvs: List[_Site]
    guards: Dict[str, FrozenSet[str]]  #: sent tag -> tags guarding it
    findings: List[Finding]


def parse_tags(source: str, rel_path: str) -> Dict[str, Tuple[int, int]]:
    """``Tags`` class members: name -> (value, line)."""
    tree = ast.parse(source, filename=rel_path)
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "Tags":
            out: Dict[str, Tuple[int, int]] = {}
            for stmt in node.body:
                if (isinstance(stmt, ast.Assign)
                        and len(stmt.targets) == 1
                        and isinstance(stmt.targets[0], ast.Name)
                        and isinstance(stmt.value, ast.Constant)
                        and isinstance(stmt.value.value, int)):
                    out[stmt.targets[0].id] = (stmt.value.value, stmt.lineno)
                elif (isinstance(stmt, ast.AnnAssign)
                        and isinstance(stmt.target, ast.Name)
                        and isinstance(stmt.value, ast.Constant)
                        and isinstance(stmt.value.value, int)):
                    out[stmt.target.id] = (stmt.value.value, stmt.lineno)
            return out
    return {}


def _resolve_tags(node: ast.AST,
                  env: Dict[str, FrozenSet[str]]) -> Optional[FrozenSet[str]]:
    """Tag names an expression can denote, or None if unresolvable."""
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "Tags"):
        return frozenset({node.attr})
    if isinstance(node, ast.Name):
        return env.get(node.id)
    if isinstance(node, ast.Attribute):
        return env.get("." + node.attr)  # a tag-valued field, see scan()
    if isinstance(node, (ast.Set, ast.Tuple, ast.List)):
        out: FrozenSet[str] = frozenset()
        for elt in node.elts:
            got = _resolve_tags(elt, env)
            if got is None:
                return None
            out |= got
        return out
    if isinstance(node, ast.IfExp):
        a = _resolve_tags(node.body, env)
        b = _resolve_tags(node.orelse, env)
        if a is None or b is None:
            return None
        return a | b
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        # set union: base | {Tags.SCHED}
        a = _resolve_tags(node.left, env)
        b = _resolve_tags(node.right, env)
        if a is None or b is None:
            return None
        return a | b
    if isinstance(node, ast.Call):
        # set(...) / frozenset(...) wrapping a resolvable literal
        if (isinstance(node.func, ast.Name)
                and node.func.id in ("set", "frozenset") and node.args):
            return _resolve_tags(node.args[0], env)
    return None


class _SiteScanner:
    """Collects send/recv sites per function, in source order, with a
    per-function environment of tag-set variables."""

    def __init__(self, rel_path: str) -> None:
        self.rel_path = rel_path
        self.sends: List[_Site] = []
        self.recvs: List[_Site] = []
        #: per-function source-ordered event streams, for guard edges:
        #: [("recv", tags) | ("send", tags, line)]
        self.streams: Dict[str, List[Tuple[str, FrozenSet[str], int]]] = {}
        #: ".field" -> tags it is constructed with, see :meth:`scan`
        self.fields: Dict[str, FrozenSet[str]] = {}

    def scan(self, tree: ast.Module) -> None:
        # tag-valued fields, module-wide: ``Foo(field=Tags.X)`` binds
        # ".field"; every function's environment starts from them
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                for kw in node.keywords:
                    got = _resolve_tags(kw.value, {}) if kw.arg else None
                    if got:
                        key = "." + kw.arg
                        self.fields[key] = self.fields.get(
                            key, frozenset()) | got
        for node in tree.body:
            self._scan_stmt(node, "<module>", dict(self.fields))

    def _scan_stmt(self, node: ast.AST, func: str,
                   env: Dict[str, FrozenSet[str]]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = f"{func}.{node.name}" if func != "<module>" else node.name
            inner_env: Dict[str, FrozenSet[str]] = dict(self.fields)
            for stmt in node.body:
                self._scan_stmt(stmt, inner, inner_env)
            return
        if isinstance(node, ast.ClassDef):
            for stmt in node.body:
                self._scan_stmt(stmt, f"{func}:{node.name}"
                                if func == "<module>" else func, env)
            return
        # dataflow: tag-set variable assignments and set growth
        # (.add / .update / |=).  An assignment or mutation the
        # resolver cannot follow must *drop* the variable -- a stale
        # value would mis-resolve every later send/recv naming it.
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and \
                isinstance(node.targets[0], ast.Name):
            got = _resolve_tags(node.value, env)
            if got is not None:
                env[node.targets[0].id] = got
            else:
                env.pop(node.targets[0].id, None)
        if isinstance(node, ast.AugAssign) and \
                isinstance(node.target, ast.Name):
            name = node.target.id
            base = env.get(name)
            got = (_resolve_tags(node.value, env)
                   if isinstance(node.op, ast.BitOr) else None)
            if base is not None and got is not None:
                env[name] = base | got
            else:
                env.pop(name, None)
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
            call = node.value
            if (isinstance(call.func, ast.Attribute)
                    and call.func.attr in ("add", "update")
                    and isinstance(call.func.value, ast.Name)
                    and call.func.value.id in env and call.args):
                got = _resolve_tags(call.args[0], env)
                if got is not None:
                    env[call.func.value.id] = env[call.func.value.id] | got
                else:
                    env.pop(call.func.value.id, None)
        for call in self._calls_in(node):
            self._classify_call(call, func, env)
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                self._scan_stmt(child, func, env)
            elif isinstance(child, ast.stmt):
                self._scan_stmt(child, func, env)
            else:
                # expressions already covered by _calls_in on the stmt
                pass
        if isinstance(node, (ast.If, ast.While, ast.For, ast.Try, ast.With)):
            return  # children handled above

    @staticmethod
    def _calls_in(node: ast.AST) -> List[ast.Call]:
        """Call nodes inside one statement, source order, not
        descending into nested statement bodies or lambdas (handled by
        their own _scan_stmt / skipped)."""
        out: List[ast.Call] = []

        def walk(n: ast.AST) -> None:
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.Lambda, ast.ClassDef)):
                return
            if isinstance(n, ast.stmt) and n is not node:
                return
            if isinstance(n, ast.Call):
                out.append(n)
            for child in ast.iter_child_nodes(n):
                walk(child)

        walk(node)
        return out

    def _classify_call(self, call: ast.Call, func: str,
                       env: Dict[str, FrozenSet[str]]) -> None:
        if not isinstance(call.func, ast.Attribute):
            return
        method = call.func.attr
        stream = self.streams.setdefault(func, [])
        tags: Optional[FrozenSet[str]]
        if method in _SEND_METHODS:
            if len(call.args) < 2:
                return
            tags = _resolve_tags(call.args[1], env)
            if tags is None:
                return  # generic plumbing (comm.py): tag is a parameter
            site = _Site(tags, self.rel_path, call.lineno, func)
            self.sends.append(site)
            stream.append(("send", tags, call.lineno))
        elif method in ("recv", "try_recv", "match_pred"):
            tags = None
            for kw in call.keywords:
                if kw.arg in ("tag", "tags"):
                    tags = _resolve_tags(kw.value, env)
            if tags is None:
                return
            site = _Site(tags, self.rel_path, call.lineno, func)
            self.recvs.append(site)
            if method != "try_recv":
                # try_recv never blocks, so it can satisfy PL101/PL102
                # coverage but must not create PL104 guard edges.
                # match_pred names the tags of a blocking recv_ev loop,
                # so it is a recv site for both purposes.
                stream.append(("recv", tags, call.lineno))


def _guard_edges(
    scanners: Sequence[_SiteScanner],
) -> Dict[str, FrozenSet[str]]:
    """``U -> {T}`` where *every* send site of U follows a single-tag
    recv of T in its function's source-ordered event stream."""
    per_send: Dict[str, List[FrozenSet[str]]] = {}
    seen_single: FrozenSet[str]
    for sc in scanners:
        for stream in sc.streams.values():
            seen_single = frozenset()
            for kind, tags, _line in stream:
                if kind == "recv":
                    if len(tags) == 1:
                        seen_single |= tags
                else:
                    for tag in tags:
                        per_send.setdefault(tag, []).append(seen_single)
    guards: Dict[str, FrozenSet[str]] = {}
    for tag, guard_sets in per_send.items():
        common = frozenset.intersection(*guard_sets) if guard_sets else \
            frozenset()
        common -= {tag}  # a tag cannot meaningfully guard itself
        if common:
            guards[tag] = common
    return guards


def _find_cycles(guards: Dict[str, FrozenSet[str]]) -> List[Tuple[str, ...]]:
    """Simple cycles in the guarded-by graph, canonicalised (smallest
    member first) and deduplicated."""
    cycles: "set[Tuple[str, ...]]" = set()

    def dfs(start: str, node: str, path: Tuple[str, ...]) -> None:
        for nxt in sorted(guards.get(node, ())):
            if nxt == start:
                cyc = path
                k = cyc.index(min(cyc))
                cycles.add(cyc[k:] + cyc[:k])
            elif nxt not in path and len(path) < 8:
                dfs(start, nxt, path + (nxt,))

    for tag in sorted(guards):
        dfs(tag, tag, (tag,))
    return sorted(cycles)


def check_sources(
    protocol_source: str,
    protocol_path: str,
    sources: Dict[str, str],
) -> ProtocolReport:
    """Run the whole protocol check on in-memory sources (the real
    tree and the test fixtures both come through here)."""
    tags = parse_tags(protocol_source, protocol_path)
    findings: List[Finding] = []
    scanners: List[_SiteScanner] = []
    for rel, text in sorted(sources.items()):
        sc = _SiteScanner(rel)
        try:
            sc.scan(ast.parse(text, filename=rel))
        except SyntaxError as exc:
            findings.append(Finding("PL101", rel, exc.lineno or 1,
                                    f"file does not parse: {exc.msg}"))
            continue
        scanners.append(sc)
    sent: Dict[str, _Site] = {}
    received: Dict[str, _Site] = {}
    for sc in scanners:
        for site in sc.sends:
            for tag in site.tags:
                sent.setdefault(tag, site)
        for sc_site in sc.recvs:
            for tag in sc_site.tags:
                received.setdefault(tag, sc_site)
    def_line = {name: line for name, (_v, line) in tags.items()}
    for name in sorted(tags, key=lambda n: tags[n][0]):
        is_sent, is_recv = name in sent, name in received
        if is_sent and not is_recv:
            site = sent[name]
            findings.append(Finding(
                "PL101", site.path, site.line,
                f"tag {name} is sent here (in {site.func}) but no recv "
                "site listens for it",
            ))
        elif is_recv and not is_sent:
            site = received[name]
            findings.append(Finding(
                "PL102", site.path, site.line,
                f"tag {name} is received here (in {site.func}) but "
                "nothing sends it",
            ))
        elif not is_sent and not is_recv:
            findings.append(Finding(
                "PL103", protocol_path, def_line[name],
                f"tag {name} is defined but never sent nor received",
            ))
    guards = _guard_edges(scanners)
    for cycle in _find_cycles(guards):
        first = sent.get(cycle[0])
        path = first.path if first else protocol_path
        line = first.line if first else def_line.get(cycle[0], 1)
        loop = " -> ".join(cycle + (cycle[0],))
        findings.append(Finding(
            "PL104", path, line,
            f"potential deadlock: guarded-by cycle {loop} (each tag's "
            "only senders block on a recv of the next)",
        ))
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return ProtocolReport(tags, [s for sc in scanners for s in sc.sends],
                          [r for sc in scanners for r in sc.recvs],
                          guards, findings)


def check_tree(
    root: Path,
    protocol: str = DEFAULT_PROTOCOL,
    scan: Sequence[str] = DEFAULT_SCAN,
) -> ProtocolReport:
    """Check the real tree rooted at ``root``."""
    proto_path = root / protocol
    sources = {
        rel: (root / rel).read_text()
        for rel in scan
        if (root / rel).is_file()
    }
    return check_sources(proto_path.read_text(), protocol, sources)
