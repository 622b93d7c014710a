"""panda-lint: the determinism lints, the protocol checker, the
allowlist/cache plumbing, and the schedule-perturbation race detector.

Each determinism rule must fire on a known-bad fixture snippet (and
stay quiet on the sanctioned pattern next to it); the protocol checker
must flag a synthetic protocol with a dead tag, an unmatched send, an
unmatched recv and a deadlock cycle; the race detector must catch a
deliberately order-dependent toy handler and pass the real tree.
"""

import ast
import json
import textwrap
from pathlib import Path
from typing import Optional

from repro.analysis import run_lint
from repro.analysis.determinism import lint_source
from repro.analysis.findings import (
    AllowEntry,
    Finding,
    _parse_allow_fallback,
    apply_allowlist,
    load_allowlist,
)
from repro.analysis.protocol_check import (DEFAULT_PROTOCOL, DEFAULT_ROLES,
                                          check_sources, check_tree,
                                          parse_tags)
from repro.analysis.race import DispatchLog, Scenario, detect, panda_scenarios
from repro.sim.engine import Simulator

REPO_ROOT = Path(__file__).resolve().parent.parent


def _rules(snippet: str):
    return [f.rule for f in lint_source(textwrap.dedent(snippet), "fix.py")]


# -- determinism rules ------------------------------------------------------

class TestDeterminismRules:
    def test_pl001_wall_clock(self):
        assert _rules("""
            import time
            def f():
                return time.perf_counter()
        """) == ["PL001"]

    def test_pl001_datetime_now(self):
        assert _rules("""
            from datetime import datetime
            def f():
                return datetime.now()
        """) == ["PL001"]

    def test_pl001_aliased_import(self):
        assert _rules("""
            import time as clock
            def f():
                return clock.time()
        """) == ["PL001"]

    def test_pl002_module_level_random(self):
        assert _rules("""
            import random
            def f():
                return random.randint(0, 9)
        """) == ["PL002"]

    def test_pl002_numpy_random(self):
        assert _rules("""
            import numpy as np
            def f():
                return np.random.rand(3)
        """) == ["PL002"]

    def test_pl002_seeded_instances_allowed(self):
        assert _rules("""
            import random
            import numpy as np
            def f(seed):
                rng = random.Random(seed)
                g = np.random.default_rng(seed)
                return rng.random() + g.standard_normal()
        """) == []

    def test_pl003_for_over_set_literal(self):
        assert _rules("""
            def f():
                for x in {1, 2, 3}:
                    print(x)
        """) == ["PL003"]

    def test_pl003_tracked_local_name(self):
        assert _rules("""
            def f(xs):
                pending = set(xs)
                for x in pending:
                    print(x)
        """) == ["PL003"]

    def test_pl003_dict_keys(self):
        assert _rules("""
            def f(d):
                return [k * 2 for k in d.keys()]
        """) == ["PL003"]

    def test_pl003_set_algebra(self):
        assert _rules("""
            def f(a, b):
                both = set(a) & set(b)
                for x in both:
                    print(x)
        """) == ["PL003"]

    def test_pl003_sorted_wrap_is_clean(self):
        assert _rules("""
            def f(xs):
                for x in sorted(set(xs)):
                    print(x)
        """) == []

    def test_pl003_laundering_rebind_is_clean(self):
        assert _rules("""
            def f(xs):
                pending = set(xs)
                pending = sorted(pending)
                for x in pending:
                    print(x)
        """) == []

    def test_pl003_set_comprehension_target_is_clean(self):
        # building a *set* from a set is order-insensitive
        assert _rules("""
            def f(xs):
                return {x + 1 for x in set(xs)}
        """) == []

    def test_pl004_sorted_key_id(self):
        assert _rules("""
            def f(xs):
                return sorted(xs, key=id)
        """) == ["PL004"]

    def test_pl004_list_sort_key_id(self):
        assert _rules("""
            def f(xs):
                xs.sort(key=id)
        """) == ["PL004"]

    def test_pl005_id_keyed_subscript(self):
        assert _rules("""
            def f(d, obj):
                d[id(obj)] = 1
        """) == ["PL005"]

    def test_pl005_id_keyed_dict_literal(self):
        assert _rules("""
            def f(obj):
                return {id(obj): obj}
        """) == ["PL005"]

    def test_pl005_id_added_to_set(self):
        assert _rules("""
            def f(seen, obj):
                seen.add(id(obj))
        """) == ["PL005"]

    def test_pl006_sum_over_set(self):
        assert "PL006" in _rules("""
            def f(vals):
                pending = frozenset(vals)
                return sum(pending)
        """)

    def test_pl008_truncating_float_index(self):
        # int(0.29 * 100) == 28: representation error picks the element
        assert _rules("""
            def quantile(xs, q):
                return xs[int(q * len(xs))]
        """) == ["PL008"]

    def test_pl008_division_and_power_forms(self):
        assert _rules("""
            def mid(xs):
                return xs[int(len(xs) / 2)]
        """) == ["PL008"]
        assert _rules("""
            def bucket(xs, k):
                return xs[int(10 ** k)]
        """) == ["PL008"]

    def test_pl008_truncation_through_a_local(self):
        # the storm's old p99: int(0.99 * n) - 1 is one rank low
        assert _rules("""
            def p99(completed):
                turnarounds = sorted(r.turnaround for r in completed)
                k99 = max(0, int(0.99 * len(turnarounds)) - 1) if turnarounds else 0
                return turnarounds[k99] if turnarounds else 0.0
        """) == ["PL008"]
        # a clean rebind launders the local, as for set-typed names
        assert _rules("""
            def first(xs, q):
                k = int(q * len(xs))
                k = 0
                return xs[k]
        """) == []
        # the sink is the index itself or a tainted local, not any
        # truncation nested deeper in the subscript
        assert _rules("""
            def window(xs, q, f):
                k = int(q * len(xs))
                return xs[f(k)], xs[:int(q * len(xs))]
        """) == []

    def test_pl008_quiet_on_sanctioned_forms(self):
        # a plain cast of an already-integral value, a base conversion,
        # integer arithmetic done with //, and an int() result that is
        # never used as an index are all fine
        assert _rules("""
            def f(xs, q, s, n):
                a = xs[int(q)]
                b = int(s, 16)
                c = xs[(q * n) // 1]
                d = int(q * n)
                return a, b, c, d
        """) == []

    def test_pl008_is_allowlistable(self):
        findings = lint_source(textwrap.dedent("""
            def quantile(xs, q):
                return xs[int(q * len(xs))]
        """), "src/repro/legacy.py")
        assert [f.rule for f in findings] == ["PL008"]
        kept, suppressed = apply_allowlist(
            findings,
            [AllowEntry("legacy.py", "PL008", "pinned historical cut")],
            "pyproject.toml",
        )
        assert kept == []
        assert [f.rule for f in suppressed] == ["PL008"]

    def test_finding_carries_location(self):
        findings = lint_source(
            "import time\n\nx = time.time()\n", "src/repro/foo.py"
        )
        assert findings == [
            Finding("PL001", "src/repro/foo.py", 3, findings[0].message)
        ]
        assert "src/repro/foo.py:3: PL001" in findings[0].format()


# -- allowlist + cache ------------------------------------------------------

class TestAllowlist:
    def test_reasonless_entry_is_pl000(self, tmp_path):
        py = tmp_path / "pyproject.toml"
        py.write_text(textwrap.dedent("""
            [tool.panda-lint]
            allow = [
                {path = "src/repro/foo.py", rule = "PL001", reason = ""},
            ]
        """))
        entries, problems = load_allowlist(py)
        assert entries == []
        assert [p.rule for p in problems] == ["PL000"]
        assert "no reason" in problems[0].message

    def test_suppression_and_stale_detection(self):
        f1 = Finding("PL001", "src/repro/foo.py", 3, "clock")
        entries = [
            AllowEntry("src/repro/foo.py", "PL001", "host-side timing"),
            AllowEntry("src/repro/bar.py", "PL003", "never matches"),
        ]
        kept, suppressed = apply_allowlist([f1], entries, "pyproject.toml")
        assert suppressed == [f1]
        assert [k.rule for k in kept] == ["PL000"]
        assert "stale" in kept[0].message

    def test_fallback_parser_matches_tomllib(self):
        text = textwrap.dedent("""
            [tool.other]
            allow = [{path = "decoy.py", rule = "PL999", reason = "no"}]

            [tool.panda-lint]
            allow = [
                {path = "a.py", rule = "PL001", reason = "r one"},
                {path = "b.py", rule = "PL003", reason = "r two"},
            ]

            [tool.after]
            x = 1
        """)
        got = _parse_allow_fallback(text)
        assert got == [
            {"path": "a.py", "rule": "PL001", "reason": "r one"},
            {"path": "b.py", "rule": "PL003", "reason": "r two"},
        ]


# -- protocol checker --------------------------------------------------------

FIXTURE_PROTOCOL = textwrap.dedent("""
    from repro.core.protocol import Message

    class Tags:
        PING = 1
        PONG = 2
        ORPHAN_SEND = 3
        ORPHAN_RECV = 4
        DEAD = 5
        SERVER_ONLY = 6
        UNLISTED = 7

    MESSAGES = (
        Message(Tags.PING, None, "peer", "peer"),
        Message(Tags.PONG, None, "peer", "peer"),
        Message(Tags.ORPHAN_SEND, None, "peer", "peer"),
        Message(Tags.ORPHAN_RECV, None, "peer", "peer"),
        Message(Tags.DEAD, None, "peer", "peer"),
        Message(Tags.SERVER_ONLY, None, "server.master", "server"),
    )
""")

# PING/PONG deadlock: ping's only send waits on a PONG recv first, and
# pong's only send waits on a PING recv first -- nobody can start.
FIXTURE_PEERS = textwrap.dedent("""
    from proto import Tags

    def ping(comm):
        msg = yield from comm.recv(tag=Tags.PONG)
        yield from comm.send(1, Tags.PING, msg)
        yield from comm.send(1, Tags.ORPHAN_SEND, None)
        yield from comm.send(1, Tags.SERVER_ONLY, None)
        yield from comm.send(1, Tags.UNLISTED, None)

    def pong(comm):
        msg = yield from comm.recv(tag=Tags.PING)
        yield from comm.send(0, Tags.PONG, msg)
        other = yield from comm.recv(tag=Tags.ORPHAN_RECV)
        comm.try_recv(tag=Tags.SERVER_ONLY)
        return other
""")


def _fixture_report(peers: str):
    return check_sources(FIXTURE_PROTOCOL, "proto.py", {"peers.py": peers},
                         roles={"peers.py": "peer"})


def _real_sources():
    return {rel: (REPO_ROOT / rel).read_text() for rel in DEFAULT_ROLES}


def _real_report(sources, protocol: Optional[str] = None):
    if protocol is None:
        protocol = (REPO_ROOT / DEFAULT_PROTOCOL).read_text()
    return check_sources(protocol, DEFAULT_PROTOCOL, sources)


def _delete_send(source: str, tag: str) -> str:
    """``source`` with every statement sending ``Tags.<tag>`` replaced
    by ``pass``."""
    lines = source.splitlines(keepends=True)
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Expr)
                and isinstance(node.value, ast.YieldFrom)
                and isinstance(node.value.value, ast.Call)
                and getattr(node.value.value.func, "attr", "") == "send"
                and ast.unparse(node.value.value.args[1]) == f"Tags.{tag}"):
            indent = lines[node.lineno - 1][:node.col_offset]
            lines[node.lineno - 1:node.end_lineno] = (
                [indent + "pass\n"]
                + [""] * (node.end_lineno - node.lineno))
    return "".join(lines)


class TestProtocolChecker:
    def test_parse_tags(self):
        tags = parse_tags(FIXTURE_PROTOCOL, "proto.py")
        assert {k: v for k, (v, _line) in tags.items()} == {
            "PING": 1, "PONG": 2, "ORPHAN_SEND": 3, "ORPHAN_RECV": 4,
            "DEAD": 5, "SERVER_ONLY": 6, "UNLISTED": 7,
        }

    def test_fixture_defects_all_reported(self):
        report = _fixture_report(FIXTURE_PEERS)
        by_rule = {}
        for f in report.findings:
            by_rule.setdefault(f.rule, []).append(f.message)
        # a send the role may not make, a send with no row
        assert by_rule["PL101"] == [
            "tag SERVER_ONLY is sent here (in ping) but its sender is "
            "server.master",
            "tag UNLISTED is sent here (in ping) but it has no row in "
            "MESSAGES",
        ]
        # a receive the role may not make
        assert by_rule["PL102"] == [
            "tag SERVER_ONLY is received here (in pong) but its receiver "
            "is server"]
        # rows nobody takes or sends, and a tag with no row
        assert sorted(by_rule["PL103"]) == [
            "tag DEAD has no send site",
            "tag ORPHAN_RECV has no send site",
            "tag ORPHAN_SEND is taken by no listen set or receive site",
            "tag UNLISTED has no row in MESSAGES",
        ]
        assert all(f.path == "proto.py" for f in report.findings
                   if f.rule == "PL103")
        # the PING/PONG mutual guard is a deadlock cycle
        assert len(by_rule["PL104"]) == 1
        assert "PING -> PONG -> PING" in by_rule["PL104"][0]

    def test_real_tree_is_clean_with_expected_guard(self):
        report = check_tree(REPO_ROOT)
        assert report.findings == []
        # every tag is sent and taken (SCHED and SCHEMA included)
        assert report.sent == report.taken == set(report.tags)
        assert {"SCHED", "SCHEMA"} <= {t for s in report.sends
                                       for t in s.tags}
        # No guard edges on the real tree: the inter-op scheduler's
        # completion path (server._sched_maybe_complete) sends OP_DONE
        # after crediting SERVER_DONEs drained off a multi-tag listen,
        # not after an inline single-tag gather.  The PING/PONG fixture
        # keeps the guard/cycle detector itself covered.
        assert report.guards == {}

    def test_real_tree_admission_tags_are_cross_referenced(self):
        # OP_REJECTED (the server-side shed) and CLIENT_DONE (the
        # master client's re-broadcast) each have a named send site and
        # are taken by a table-derived client listen set.
        report = check_tree(REPO_ROOT)
        named = {t for s in report.sends for t in s.tags}
        for tag in ("OP_REJECTED", "CLIENT_DONE"):
            assert tag in named, f"{tag} has no send site"
            assert tag in report.taken, f"{tag} is never taken"

    def test_try_recv_is_recv_site_but_not_guard(self):
        # try_recv counts as a receive site without ever creating a
        # PL104 guard edge -- it cannot block.
        peers = textwrap.dedent("""
            from proto import Tags

            def pump(comm):
                msg = comm.try_recv(tags={Tags.PING})
                yield from comm.send(1, Tags.PONG, msg)

            def drive(comm):
                yield from comm.send(0, Tags.PING, None)
                msg = yield from comm.recv(tag=Tags.PONG)
                return msg
        """)
        report = _fixture_report(peers)
        assert {"PING", "PONG"} <= report.taken
        assert "PONG" not in report.guards
        assert all(f.rule == "PL103" for f in report.findings)

    def test_mutant_without_the_recover_send(self):
        sources = _real_sources()
        server = DEFAULT_PROTOCOL.replace("protocol", "server")
        sources[server] = _delete_send(sources[server], "RECOVER")
        assert sources[server] != (REPO_ROOT / server).read_text()
        findings = _real_report(sources).findings
        assert [(f.rule, f.message) for f in findings] == [
            ("PL103", "tag RECOVER has no send site")]

    def test_mutant_client_sends_fetch(self):
        sources = _real_sources()
        client = DEFAULT_PROTOCOL.replace("protocol", "client")
        sources[client] = sources[client].replace(
            "self._op_owner_rank, Tags.REQUEST, op",
            "self._op_owner_rank, Tags.FETCH, op")
        findings = _real_report(sources).findings
        assert [f.rule for f in findings] == ["PL101"]
        assert findings[0].path == client
        assert "tag FETCH is sent here (in collective)" in findings[0].message

    def test_mutant_row_without_a_sender(self):
        protocol = (REPO_ROOT / DEFAULT_PROTOCOL).read_text()
        mutant = protocol.replace(
            "    OP_REJECTED = 22\n", "    OP_REJECTED = 22\n    PROBE = 23\n"
        ).replace(
            "\n)\n\n\ndef listen_tags",
            "\n    Message(Tags.PROBE, None, MASTER_SERVER, PEER_SERVER),"
            "\n)\n\n\ndef listen_tags")
        assert "Tags.PROBE" in mutant
        findings = _real_report(_real_sources(), mutant).findings
        assert [(f.rule, f.message) for f in findings] == [
            ("PL103", "tag PROBE has no send site")]

    def test_check_tree_reads_the_table_of_its_root(self, tmp_path):
        # a copy whose table gained a row: the copy's check sees it,
        # the original tree's does not
        for rel in (DEFAULT_PROTOCOL, *DEFAULT_ROLES):
            (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / rel).write_text((REPO_ROOT / rel).read_text())
        proto = tmp_path / DEFAULT_PROTOCOL
        proto.write_text(proto.read_text().replace(
            "    OP_REJECTED = 22\n", "    OP_REJECTED = 22\n    PROBE = 23\n"))
        assert [f.message for f in check_tree(tmp_path).findings] == [
            "tag PROBE has no row in MESSAGES"]
        assert check_tree(REPO_ROOT).findings == []


# -- race detector -----------------------------------------------------------

def _racy_toy():
    """Two same-timestamp, causally-unordered, non-commutative updates:
    the result depends on dispatch order -- a race by construction."""
    sim = Simulator()
    state = {"x": 1.0}

    def double() -> None:
        state["x"] *= 2

    def add_three() -> None:
        state["x"] += 3

    sim.schedule(1.0, double)
    sim.schedule(1.0, add_three)

    def finish():
        sim.run()
        return (state["x"].hex(),)

    return sim, finish


def _commutative_toy():
    sim = Simulator()
    state = {"x": 0.0}

    def bump() -> None:
        state["x"] += 1

    for _ in range(4):
        sim.schedule(1.0, bump)

    def finish():
        sim.run()
        return (state["x"].hex(),)

    return sim, finish


class TestRaceDetector:
    def test_racy_toy_is_caught_with_diverging_pair(self):
        report = detect([Scenario("racy-toy", _racy_toy)],
                        seeds=(1, 2, 3, 4, 5))
        assert not report.ok
        d = report.divergences[0]
        assert d.scenario == "racy-toy"
        # the schedules split at the very first same-time pair
        assert d.event_index == 0
        assert d.baseline_event is not None
        assert d.perturbed_event is not None
        assert d.baseline_event != d.perturbed_event
        assert "first diverging event pair" in d.describe()

    def test_order_insensitive_toy_passes(self):
        report = detect([Scenario("commutative", _commutative_toy)],
                        seeds=(1, 2, 3, 4, 5))
        assert report.ok
        assert report.runs == 5

    def test_logged_baseline_equals_unlogged_run(self):
        """A DispatchLog controller alone must not change dispatch
        order: its choice is exactly the fast loop's (time, seq)
        order."""
        plain = Simulator()
        vals = []
        logged = Simulator()
        log = DispatchLog()
        logged.enable_controller(log)
        lvals = []
        for i in range(5):
            plain.schedule(0.5, vals.append, i)
            plain.schedule(0.5, vals.append, i + 10)
            logged.schedule(0.5, lvals.append, i)
            logged.schedule(0.5, lvals.append, i + 10)
        plain.run()
        logged.run()
        assert vals == lvals
        assert len(log.log) == 10

    def test_panda_scenarios_survive_perturbation(self):
        """Representative ops (natural + reorganizing schema) are
        schedule-independent; the full sweep incl. faults runs in CI
        (python -m repro race)."""
        report = detect(panda_scenarios(with_faults=False), seeds=(1, 2))
        assert report.ok, report.summary()


# -- the composed lint + CLI --------------------------------------------------

class TestRunLint:
    def test_real_tree_lints_clean(self):
        result = run_lint(REPO_ROOT)
        assert result.ok, "\n".join(result.lines())
        assert result.findings == []

    def test_cli_lint_json(self, capsys):
        from repro.cli import main

        rc = main(["lint", "--root", str(REPO_ROOT), "--format", "json"])
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert rc == 0
        assert set(doc) == {"ok", "rules", "findings", "suppressed"}
        assert doc["ok"] is True
        assert doc["findings"] == []
        assert "PL104" in doc["rules"]

    def test_cli_lint_rejects_non_root(self, tmp_path, capsys):
        from repro.cli import main

        rc = main(["lint", "--root", str(tmp_path)])
        assert rc == 2
        assert "pyproject" in capsys.readouterr().err

    def test_cli_race_subcommand(self, capsys):
        from repro.cli import main

        rc = main(["race", "--seeds", "2", "--no-faults"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "all schedules agree" in out


class TestHotPathRule:
    """PL007: the locals-only contract on the engine's drain loops."""

    def _check(self, tmp_path, body):
        from repro.analysis import hotpath

        engine = tmp_path / hotpath.ENGINE_PATH
        engine.parent.mkdir(parents=True)
        engine.write_text(textwrap.dedent(body))
        return hotpath.check_engine(tmp_path)

    def test_self_lookup_in_loop_is_flagged(self, tmp_path):
        findings = self._check(tmp_path, """
            class Simulator:
                def run(self):
                    while True:
                        e = self._heap[0]
        """)
        assert [f.rule for f in findings] == ["PL007"]
        assert "self._heap" in findings[0].message

    def test_hoisted_locals_are_clean(self, tmp_path):
        findings = self._check(tmp_path, """
            class Simulator:
                def run(self):
                    heap = self._heap
                    pop = heap.pop
                    while True:
                        e = pop()
        """)
        assert findings == []

    def test_attribute_store_is_exempt(self, tmp_path):
        # the mirrored-local clock publish (self._now = now = t) must
        # not trip the rule: stores cannot be hoisted
        findings = self._check(tmp_path, """
            class Simulator:
                def run(self):
                    now = 0.0
                    while True:
                        self._now = now = now + 1.0
        """)
        assert findings == []

    def test_sanctioned_lookup_is_exempt(self, tmp_path):
        findings = self._check(tmp_path, """
            class Simulator:
                def run(self):
                    unhandled = self._unhandled
                    while True:
                        if unhandled:
                            self._raise_unhandled()
        """)
        assert findings == []

    def test_unscanned_methods_are_ignored(self, tmp_path):
        # _run_instrumented is the slow twin by design
        findings = self._check(tmp_path, """
            class Simulator:
                def _run_instrumented(self):
                    while True:
                        e = self._heap[0]
        """)
        assert findings == []

    def test_real_engine_honours_the_contract(self):
        from repro.analysis.hotpath import check_engine

        assert check_engine(REPO_ROOT) == []
