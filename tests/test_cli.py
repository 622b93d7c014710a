"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_table1(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "2.85 MB/s" in out
    assert "2.23 MB/s" in out
    assert "34" in out


def test_figures_subset(capsys):
    assert main(["figures", "fig4", "--sizes", "16"]) == 0
    out = capsys.readouterr().out
    assert "fig4" in out
    assert "aggregate throughput" in out
    assert "16 MB" in out
    assert "512 MB" not in out  # size sweep was restricted


def test_figures_unknown_name(capsys):
    assert main(["figures", "fig99"]) == 2
    assert "unknown figure" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    ("soak --cycles 2", "a drill needs >= 3 cycles"),
    ("sched --shards 8 --io 4", "8 admission shards need at least as many"),
    ("sched --apps 3", "n_compute=8 must be a multiple of n_apps=3"),
    ("sched --apps 2 --priorities 1,2,3", "need one priority per app"),
    ("predict --size-mb 17", "no canonical shape for 17 MB"),
    ("trace --size-mb 7", "no canonical shape for 7 MB"),
])
def test_outside_input_exits_2_with_a_message(argv, message, capsys):
    assert main(argv.split()) == 2
    err = capsys.readouterr().err
    command = argv.split()[0]
    assert err.startswith(f"repro {command}: {message}")
    assert "Traceback" not in err


def test_predict_basic(capsys):
    assert main(["predict", "--compute", "8", "--io", "2",
                 "--size-mb", "16"]) == 0
    out = capsys.readouterr().out
    assert "bottleneck" in out
    assert "disk" in out


def test_predict_fast_disk_bottleneck_is_network(capsys):
    assert main(["predict", "--compute", "8", "--io", "2",
                 "--size-mb", "16", "--fast-disk"]) == 0
    out = capsys.readouterr().out
    assert "network" in out


def test_predict_verify_reports_error(capsys):
    assert main(["predict", "--compute", "8", "--io", "2",
                 "--size-mb", "16", "--verify"]) == 0
    out = capsys.readouterr().out
    assert "prediction error" in out


def test_compare(capsys):
    assert main(["compare", "--size-mb", "16", "--compute", "8",
                 "--io", "2"]) == 0
    out = capsys.readouterr().out
    assert "Panda (natural)" in out
    assert "two-phase" in out
    assert "naive striping" in out


def test_replay_record_list(capsys):
    assert main(["replay", "record", "--list"]) == 0
    names = capsys.readouterr().out.split()
    assert "roundtrip" in names and "storm-small" in names


def test_replay_record_run_diff_in_process(tmp_path, capsys):
    out = tmp_path / "rt.json"
    assert main(["replay", "record", "roundtrip", "-o", str(out)]) == 0
    assert "recorded 'roundtrip'" in capsys.readouterr().out

    assert main(["replay", "run", str(out)]) == 0
    assert "bit-exactly" in capsys.readouterr().out

    assert main(["replay", "run", str(out), "--policy", "sjf"]) == 0
    assert "stored bytes identical" in capsys.readouterr().out

    assert main(["replay", "run", str(out), "--format", "json"]) == 0
    assert '"stored_equal": true' in capsys.readouterr().out

    assert main(["replay", "diff", str(out)]) == 0
    assert "replay matches recording" in capsys.readouterr().out


def test_replay_cli_error_paths(tmp_path, capsys):
    assert main(["replay", "record", "no-such-scenario"]) == 2
    assert "unknown scenario" in capsys.readouterr().err

    assert main(["replay", "record"]) == 2
    assert "scenario name required" in capsys.readouterr().err

    assert main(["replay", "run", str(tmp_path / "missing.json")]) == 2
    assert "cannot load" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text("{}\n")
    assert main(["replay", "diff", str(bad)]) == 2
    assert "cannot load" in capsys.readouterr().err
