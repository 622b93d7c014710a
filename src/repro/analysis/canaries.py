"""Canaries: copies of the tree with one known defect put back.

A canary proves that a check still catches the defect it was written
for.  Each row of :data:`CANARIES` puts one defect back with an
exact-text patch (its ``old`` text must occur exactly once in its
file), runs one command on the patched copy and requires it to fail:
exit status 1, with output matching the row's ``expect``.  Rows
without a patch run a command whose own fixture is the defect.

``python -m repro.analysis.canaries``, from the repo root, copies the
working tree (local edits included) once per row, prints one line per
row and exits 1 naming every row that was not caught or whose patch
no longer applies.  ``tests/test_canaries.py`` checks in tier-1 that
every patch still applies to the tree.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

__all__ = ["CANARIES", "Canary", "apply", "main", "run"]

#: seconds a command gets before the row counts as not caught
TIMEOUT_S = 120

_UNCOPIED = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info")


@dataclass(frozen=True)
class Canary:
    name: str
    #: argv after the interpreter, run at the copy's root
    command: Tuple[str, ...]
    #: a regex the failing output must contain
    expect: str
    #: the defect: ``old`` -> ``new`` in ``path`` (repo-relative)
    path: Optional[str] = None
    old: str = ""
    new: str = ""


def _pytest(test_file: str, *select: str) -> Tuple[str, ...]:
    return ("-m", "pytest", test_file, "-q", "-p", "no:cacheprovider",
            *select)


_LINT = ("-m", "repro", "lint")
_RACY = ("-m", "repro", "mc", "--racy-fixture", "--scenario", "racy-fixture")
# the PL201 finding names the racing writer pair on its next two lines
_RACE = r"PL201 .*\n.*writer_a.*\n.*writer_b"

CANARIES: Tuple[Canary, ...] = (
    # the protocol check lints a tree against that tree's own table: a
    # server without its one RECOVER send is a PL103
    Canary("protocol-recover", _LINT, r"PL103.*RECOVER",
           "src/repro/core/server.py",
           "yield from self.comm.send(\n"
           "                rt.server_rank(a.survivor_index), Tags.RECOVER,\n"
           "                RecoverMsg(op, a, reply_to=self.rank),\n"
           "            )",
           "pass"),
    # the baselines' daemon is held to the table's BASELINE rows too
    Canary("daemon-flush-ack", _LINT, r"PL103.*DAEMON_FLUSH_ACK",
           "src/repro/baselines/daemon.py",
           "yield from comm.send(msg.src, Tags.DAEMON_FLUSH_ACK)", "pass"),
    # every trace emit site is held to the tree's own RECORDS table
    Canary("record-kind", _LINT,
           r"src/repro/fs/filesystem.py:[0-9]*: PL105 record fsync_canary",
           "src/repro/fs/filesystem.py", '"fsync"', '"fsync_canary"'),
    # a supervisor that swallows a client failure and shuts the servers
    # down (the old drain) must fail the teardown sweep, its sharded
    # fault configs stopped by the livelock guard rather than spinning
    Canary("teardown",
           _pytest("tests/test_failure_injection.py", "-k",
                   "tears_the_run_down"),
           r"LivelockError: livelock",
           "src/repro/core/runtime.py",
           "            rank = next(r for r, p in clients.items()"
           " if p.exception is exc)\n"
           "            abort = RunAborted(rank, exc)\n"
           "            for p in procs:\n"
           "                if p.is_alive:\n"
           "                    _stop(p, abort)\n"
           "            return\n",
           "            pass\n"),
    # a yielded delay's heap entry still dispatches after an Interrupt;
    # only the wake token makes it stale
    Canary("stale-wake",
           _pytest("tests/test_sim_engine.py", "-k", "interrupt_mid_delay"),
           r"FAILED.*test_interrupt_mid_delay_leaves_a_stale_wake",
           "src/repro/sim/engine.py",
           "            if self._waiting_on is not trigger:\n"
           "                return  # stale: the delay was interrupted\n",
           "            pass\n"),
    # a server gathers a write straight into the file's reserved extent;
    # a store that stages it in a scratch buffer (the old hop) copies
    # each byte twice
    Canary("copy-budget", _pytest("tests/test_copy_budget.py"),
           r"FAILED.*test_roundtrip_moves_each_byte_once_per_hop",
           "src/repro/fs/store.py",
           "        _check_eof(path, self._sizes[path], offset)\n"
           "        buf = self._unpinned(path)\n"
           "        short = offset + nbytes - len(buf)\n"
           "        if short > 0:\n"
           "            buf += bytes(short)\n"
           "        self._reserved[path] = (offset, nbytes)\n"
           "        return memoryview(buf)[offset:offset + nbytes]\n"
           "\n"
           "    def commit(self, path: str, offset: int, nbytes: int) -> None:\n"
           '        """Make the reservation ``[offset, offset + nbytes)``'
           ' readable."""\n'
           "        if self._reserved.pop(path, None) != (offset, nbytes):\n"
           "            raise ValueError(\n"
           '                f"commit of {path}+{offset} ({nbytes}B)'
           ' matches no reservation")\n'
           "        self._sizes[path] = offset + nbytes\n",
           "        self._scratch = bytearray(nbytes)\n"
           "        return memoryview(self._scratch)\n"
           "\n"
           "    def commit(self, path: str, offset: int, nbytes: int) -> None:\n"
           "        self.write(path, offset, self._scratch, nbytes)\n"),
    # the daemon hands the store a view of each write's payload; a
    # daemon that copies it out first copies each byte twice
    Canary("daemon-copy", _pytest("tests/test_copy_budget.py"),
           r"FAILED.*test_baseline_write_and_read_move_each_byte_once",
           "src/repro/baselines/daemon.py",
           "block.to_buffer()", "block.to_bytes()"),
    # admit_seq is unique for a runtime's lifetime: each run's shard
    # masters number on from where the previous run stopped
    Canary("admission-numbering",
           _pytest("tests/test_obs.py", "-k", "own_tracks"),
           r"FAILED.*test_each_scheduled_run_draws_its_ops_on_their_own_tracks",
           "src/repro/core/server.py",
           "seq_start=rt.admit_base + self._shard", "seq_start=self._shard"),
    # a committed fig8 point out of its band fails the paper's smoke
    # check, and the band property names the point
    Canary("paper-band",
           ("benchmarks/bench_paper.py", "--smoke", "--check"),
           r"normalised_bands: fig8/64/4",
           "BENCH_paper.json",
           '"normalized": 0.920315805384708', '"normalized": 0.5'),
    # a moved committed smoke point fails the gate, named by key path
    Canary("gate-moved-point",
           ("benchmarks/bench_scale.py", "--smoke", "--check"),
           r"depth_sweep/100/1",
           "BENCH_scale.json",
           '"makespan": 0.740097,', '"makespan": 1.740097,'),
    # the known-racy fixture must be caught by the search alone and by
    # the walks alone (budget 1 leaves only the baseline schedule)
    Canary("racy-search", _RACY + ("--walks", "0"), _RACE),
    Canary("racy-walks", _RACY + ("--budget", "1", "--walks", "5"), _RACE),
)


def apply(row: Canary, root: Path) -> None:
    """Put ``row``'s defect back in the tree at ``root``.  Raises
    ValueError unless its ``old`` text occurs exactly once."""
    if row.path is None:
        return
    target = root / row.path
    text = target.read_text()
    count = text.count(row.old)
    if count != 1:
        raise ValueError(
            f"patch no longer applies: its old text occurs {count} times "
            f"in {row.path}, not once")
    target.write_text(text.replace(row.old, row.new))


def run(row: Canary, tree: Path) -> Optional[str]:
    """Run ``row`` on a patched copy of ``tree``: None if the defect
    was caught, else why not."""
    with tempfile.TemporaryDirectory(prefix="canary-") as tmp:
        copy = Path(tmp) / "tree"
        shutil.copytree(tree, copy, ignore=_UNCOPIED)
        try:
            apply(row, copy)
        except ValueError as exc:
            return str(exc)
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        try:
            proc = subprocess.run(
                [sys.executable, *row.command], cwd=copy, env=env,
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return f"no verdict within {TIMEOUT_S} s"
    if proc.returncode != 1:
        return f"exit status {proc.returncode}, not 1\n{proc.stdout}"
    if re.search(row.expect, proc.stdout) is None:
        return f"output does not match {row.expect!r}\n{proc.stdout}"
    return None


def main() -> int:
    tree = Path.cwd()
    if not (tree / "pyproject.toml").is_file():
        print(f"{tree} is not the repo root (no pyproject.toml)",
              file=sys.stderr)
        return 2
    missed: List[str] = []
    for row in CANARIES:
        why = run(row, tree)
        if why is None:
            print(f"caught  {row.name}", flush=True)
        else:
            missed.append(row.name)
            print(f"MISSED  {row.name}: {why}", flush=True)
    if missed:
        print(f"canaries: {len(missed)} of {len(CANARIES)} not caught: "
              + ", ".join(missed))
        return 1
    print(f"canaries: all {len(CANARIES)} caught")
    return 0


if __name__ == "__main__":
    sys.exit(main())
