"""Every canary row still applies to this tree.

A canary puts one known defect back in a copy of the tree and requires
a named check to fail (:mod:`repro.analysis.canaries`; the runner runs
in CI).  These checks need no copy and start no process: a change that
edits a guarded line fails here, naming the row, not only in CI.
"""

from pathlib import Path

import pytest

from repro.analysis.canaries import CANARIES

ROOT = Path(__file__).resolve().parent.parent
PATCHED = [row for row in CANARIES if row.path is not None]


def _script(command):
    """The file a row's command runs: a script, a test file, or a
    package's ``__main__``."""
    if command[0] != "-m":
        return command[0]
    if command[1] == "pytest":
        return command[2]
    return "src/" + command[1].replace(".", "/") + "/__main__.py"


def test_row_names_are_unique():
    names = [row.name for row in CANARIES]
    assert len(set(names)) == len(names), names


@pytest.mark.parametrize("row", PATCHED, ids=lambda row: row.name)
def test_patch_matches_exactly_once(row):
    text = (ROOT / row.path).read_text()
    assert text.count(row.old) == 1, (
        f"canary {row.name}: its old text no longer occurs exactly once "
        f"in {row.path}")
    assert row.new != row.old


@pytest.mark.parametrize("row", CANARIES, ids=lambda row: row.name)
def test_command_runs_a_file_of_this_tree(row):
    assert (ROOT / _script(row.command)).is_file(), row.name
