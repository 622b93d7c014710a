"""DESIGN.md section 7 draws the repository layout; every ``.py``
path it names must exist.

The layout is an indented block: a token ending in ``/`` opens a
directory whose children sit at a deeper indent, a line that starts
with a file name lists it under the enclosing directory, and deeper
continuation lines go on listing the last directory's files.  Brace
groups expand (``bench_{scale,soak}.py``).
"""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
_PY = re.compile(r"[\w./]*(?:\{[\w,]+\}[\w./]*)*\.py\b")


def _expand(name):
    m = re.search(r"\{([\w,]+)\}", name)
    if m is None:
        return [name]
    return [full for part in m.group(1).split(",")
            for full in _expand(name[:m.start()] + part + name[m.end():])]


def layout_paths(text):
    """Every ``.py`` path the section 7 layout names, repo-relative."""
    section = text.split("## 7. Repository layout\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    dirs = []  # (indent, path) of the open directories
    paths = []
    for line in section.splitlines():
        if not line.startswith("    "):
            continue
        indent = len(line) - len(line.lstrip())
        first = line.split()[0]
        while dirs and dirs[-1][0] >= indent:
            dirs.pop()
        here = dirs[-1][1] if dirs else ""
        if first.endswith("/"):
            here += first
            dirs.append((indent, here))
        paths += [here + p for m in _PY.findall(line) for p in _expand(m)]
    return paths


def test_layout_parser_reads_the_drawing():
    text = ("## 7. Repository layout\n\n"
            "    src/repro/\n"
            "      machine.py            the machine\n"
            "      sim/                  engine.py,\n"
            "                            trace.py\n"
            "      cli.py                the CLI\n"
            "    benchmarks/             bench_{a,b}.py\n"
            "\n## 8. Next\n    ignored.py\n")
    assert layout_paths(text) == [
        "src/repro/machine.py", "src/repro/sim/engine.py",
        "src/repro/sim/trace.py", "src/repro/cli.py",
        "benchmarks/bench_a.py", "benchmarks/bench_b.py"]


def test_every_layout_path_exists():
    paths = layout_paths((ROOT / "DESIGN.md").read_text())
    assert len(paths) > 40  # the parser still reads the drawing
    missing = [p for p in paths if not (ROOT / p).is_file()]
    assert missing == []
