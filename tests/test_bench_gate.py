"""The scenario benches' one driver, ``benchmarks/gate.py``.

Every case drives :func:`gate.main` with a fake sweep against a
temporary results file, so no simulation runs: what is under test is
the per-point exact-match check and the per-point update.
"""

import importlib.util
import json
import pathlib

import pytest

_GATE = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "gate.py"
_spec = importlib.util.spec_from_file_location("bench_gate", _GATE)
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)

#: a committed document shaped like BENCH_scale.json: a smoke row whose
#: full-sweep 16-shard point the smoke run does not produce.
COMMITTED = {
    "description": "old description",
    "depth_sweep": {
        "100": {"1": {"makespan": 0.74}, "4": {"makespan": 0.101},
                "16": {"makespan": 0.05}},
        "625": {"1": {"makespan": 3.0}},
    },
}


def _sweep(points):
    def sweep(smoke):
        assert smoke
        yield from points
    return sweep


def _run(tmp_path, args, points, properties=lambda committed, fresh: []):
    results = tmp_path / "BENCH_fake.json"
    if not results.exists():
        results.write_text(json.dumps(COMMITTED, indent=1) + "\n")
    rc = gate.main(["--smoke", *args], results=results, doc="fake bench",
                   description="new description", smoke_help="smoke",
                   sweep=_sweep(points), properties=properties)
    return rc, results


SAME = [(("depth_sweep", "100", "1"), {"makespan": 0.74}),
        (("depth_sweep", "100", "4"), {"makespan": 0.101})]


def test_check_passes_when_nothing_moved(tmp_path, capsys):
    rc, _ = _run(tmp_path, ["--check"], SAME)
    assert rc == 0
    assert "2 point(s) identical" in capsys.readouterr().out


def test_moved_point_fails_check_named_by_key_path(tmp_path, capsys):
    moved = [SAME[0], (("depth_sweep", "100", "4"), {"makespan": 0.2})]
    rc, _ = _run(tmp_path, ["--check"], moved)
    assert rc == 1
    err = capsys.readouterr().err
    assert "depth_sweep/100/4: makespan moved" in err
    assert "depth_sweep/100/1" not in err


def test_missing_committed_point_fails_check(tmp_path, capsys):
    rc, _ = _run(tmp_path, ["--check"],
                 SAME + [(("nodes_sweep", "64", "1"), {"makespan": 1.0})])
    assert rc == 1
    assert "nodes_sweep/64/1: no committed point" in capsys.readouterr().err


def test_property_failure_fails_check(tmp_path, capsys):
    seen = []

    def properties(committed, fresh):
        seen.append((committed, fresh))
        return ["diagonal grew"]

    rc, _ = _run(tmp_path, ["--check"], SAME, properties)
    assert rc == 1
    assert "FAIL: diagonal grew" in capsys.readouterr().err
    committed, fresh = seen[0]
    assert committed == COMMITTED
    assert fresh == {"depth_sweep": {"100": {"1": {"makespan": 0.74},
                                             "4": {"makespan": 0.101}}}}


def test_update_keeps_points_the_run_did_not_produce(tmp_path):
    """A smoke --update must not drop the committed full-sweep point
    depth_sweep/100/16 that shares a row with the smoke points."""
    rc, results = _run(tmp_path, ["--update"],
                       [(("depth_sweep", "100", "4"), {"makespan": 0.2})])
    assert rc == 0
    doc = json.loads(results.read_text())
    want = json.loads(json.dumps(COMMITTED))
    want["description"] = "new description"
    want["depth_sweep"]["100"]["4"] = {"makespan": 0.2}
    assert doc == want
    assert list(doc) == list(COMMITTED)
    assert list(doc["depth_sweep"]["100"]) == ["1", "4", "16"]


def test_update_with_nothing_moved_is_byte_identical(tmp_path):
    results = tmp_path / "BENCH_fake.json"
    before = json.dumps({**COMMITTED, "description": "new description"},
                        indent=1) + "\n"
    results.write_text(before)
    rc, _ = _run(tmp_path, ["--update"], SAME)
    assert rc == 0
    assert results.read_text() == before


def test_update_on_a_new_file_puts_description_first(tmp_path):
    results = tmp_path / "BENCH_fake.json"
    rc = gate.main(["--smoke", "--update"], results=results, doc="",
                   description="d", smoke_help="", sweep=_sweep(SAME),
                   properties=lambda c, f: [])
    assert rc == 0
    doc = json.loads(results.read_text())
    assert list(doc) == ["description", "depth_sweep"]


@pytest.mark.parametrize("extra", ([], ["--check"]))
def test_out_writes_exactly_the_fresh_points(tmp_path, extra):
    out = tmp_path / "sweep.json"
    points = [(("smoke_drills", "1"), {"ok": True}), (("comparison",), {"b": 1})]
    _run(tmp_path, ["--out", str(out), *extra], points)
    assert json.loads(out.read_text()) == {
        "smoke_drills": {"1": {"ok": True}}, "comparison": {"b": 1}}
    results = tmp_path / "BENCH_fake.json"
    assert json.loads(results.read_text()) == COMMITTED


# -- a full run owns the sections it produced ---------------------------------

#: BENCH_soak-shaped: ``smoke_drills`` is a section only smoke runs make
FULL_COMMITTED = {**COMMITTED, "smoke_drills": {"1": {"ok": True}}}
FULL = [(("depth_sweep", "100", "1"), {"makespan": 0.74}),
        (("depth_sweep", "100", "4"), {"makespan": 0.101}),
        (("depth_sweep", "100", "16"), {"makespan": 0.05}),
        (("depth_sweep", "625", "1"), {"makespan": 3.0})]


def _run_full(tmp_path, args, points):
    results = tmp_path / "BENCH_fake.json"
    if not results.exists():
        results.write_text(json.dumps(FULL_COMMITTED, indent=1) + "\n")

    def sweep(smoke):
        assert not smoke
        yield from points

    rc = gate.main(list(args), results=results, doc="fake bench",
                   description="old description", smoke_help="smoke",
                   sweep=sweep, properties=lambda committed, fresh: [])
    return rc, results


def test_full_check_passes_when_every_point_is_produced(tmp_path, capsys):
    rc, results = _run_full(tmp_path, ["--check"], FULL)
    assert rc == 0, capsys.readouterr().err
    before = results.read_text()
    rc, _ = _run_full(tmp_path, ["--update"], FULL)
    assert rc == 0
    assert results.read_text() == before


@pytest.mark.parametrize("produced, stale", [
    (FULL[:2] + FULL[3:], "depth_sweep/100/16"),
    (FULL[:3], "depth_sweep/625"),
])
def test_full_check_names_a_committed_point_the_run_did_not_produce(
        tmp_path, capsys, produced, stale):
    rc, _ = _run_full(tmp_path, ["--check"], produced)
    assert rc == 1
    err = capsys.readouterr().err
    assert f"FAIL: {stale}: committed point the run did not produce" in err
    assert err.count("FAIL") == 1


def test_full_update_drops_stale_points_only_in_produced_sections(tmp_path):
    """A renamed key path leaves no stale point behind; the section the
    full run does not make (``smoke_drills``) and the description stay."""
    renamed = FULL[:2] + [(("depth_sweep", "100", "64"), {"makespan": 0.02})]
    rc, results = _run_full(tmp_path, ["--update"], renamed)
    assert rc == 0
    doc = json.loads(results.read_text())
    assert doc == {
        "description": "old description",
        "depth_sweep": {"100": {"1": {"makespan": 0.74},
                                "4": {"makespan": 0.101},
                                "64": {"makespan": 0.02}}},
        "smoke_drills": {"1": {"ok": True}},
    }
    rc, _ = _run_full(tmp_path, ["--check"], renamed)
    assert rc == 0
