"""The one driver of the gated benches: the paper's evaluation
(``bench_paper.py``) and the scenario benches (``bench_scheduler.py``,
``bench_scale.py``, ``bench_soak.py``, ``bench_storm.py``).

A bench supplies ``sweep(smoke)``, which runs its points and yields
``(key_path, point)`` pairs -- ``key_path`` names where the point lives
in the committed ``BENCH_*.json`` (e.g. ``("depth_sweep", "100", "4")``)
-- and ``properties(committed, fresh)``, which returns its acceptance
failures.  Simulated results are deterministic, so:

- ``--check`` demands an exact match for every point the run produced
  (a moved or missing point fails, named by its key path joined with
  ``/``), then appends the bench's property failures;
- ``--update`` replaces exactly the points the run produced and keeps
  every other committed point where it was;
- a full run (no ``--smoke``) also owns every top-level section it
  produced: a committed key path inside one that the run did not
  produce is stale, so ``--check`` fails naming it and ``--update``
  drops it.  Sections the run produced nothing in are left alone;
- ``--out PATH`` writes the fresh points (a CI artifact).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

KeyPath = Tuple[str, ...]
Sweep = Callable[[bool], Iterable[Tuple[KeyPath, Dict[str, Any]]]]
Properties = Callable[[dict, dict], List[str]]


def _get(doc: dict, path: KeyPath) -> Optional[dict]:
    for key in path:
        doc = doc.get(key) if isinstance(doc, dict) else None
    return doc


def _put(doc: dict, path: KeyPath, point: dict) -> None:
    for key in path[:-1]:
        doc = doc.setdefault(key, {})
    doc[path[-1]] = point


def _stale(committed: dict, fresh: dict,
           produced: "set[KeyPath]") -> List[KeyPath]:
    """Committed key paths, inside the top-level sections ``fresh``
    has, that the run did not produce."""
    out: List[KeyPath] = []

    def walk(have: dict, got: dict, path: KeyPath) -> None:
        for key, value in have.items():
            sub = path + (key,)
            if sub in produced:
                continue
            if key in got and isinstance(value, dict):
                walk(value, got[key], sub)
            else:
                out.append(sub)

    walk({k: v for k, v in committed.items() if k in fresh}, fresh, ())
    return out


def _drop(doc: dict, path: KeyPath) -> None:
    for key in path[:-1]:
        doc = doc[key]
    del doc[path[-1]]


def _write(path: pathlib.Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {path}")


def main(argv: Optional[List[str]] = None, *, results: pathlib.Path,
         doc: str, description: str, smoke_help: str, sweep: Sweep,
         properties: Properties) -> int:
    """Run one bench: ``results`` is its ``BENCH_*.json``, ``doc`` the
    ``--help`` text and ``description`` the document's description
    field.  Returns the exit code."""
    ap = argparse.ArgumentParser(description=doc)
    ap.add_argument("--smoke", action="store_true", help=smoke_help)
    ap.add_argument("--check", action="store_true",
                    help=f"compare against committed {results.name}")
    ap.add_argument("--update", action="store_true",
                    help=f"rewrite {results.name} with this run's points")
    ap.add_argument("--out", metavar="PATH", type=pathlib.Path,
                    help="also write this run's points as JSON (CI artifact)")
    args = ap.parse_args(argv)

    points = list(sweep(args.smoke))
    fresh: dict = {}
    for path, point in points:
        _put(fresh, path, point)
    if args.out:
        _write(args.out, fresh)
    committed = json.loads(results.read_text()) if results.exists() else {}
    stale = [] if args.smoke else _stale(
        committed, fresh, {path for path, _ in points})

    if args.check:
        failures = []
        for path, point in points:
            want = _get(committed, path)
            where = "/".join(path)
            if want is None:
                failures.append(f"{where}: no committed point (run --update)")
            elif want != point:
                moved = sorted(k for k in point.keys() | want.keys()
                               if point.get(k) != want.get(k))
                failures.append(f"{where}: {', '.join(moved)} moved from "
                                "committed (rerun --update if intentional)")
        failures += [f"{'/'.join(path)}: committed point the run did not "
                     "produce (rerun --update to drop it)" for path in stale]
        failures += properties(committed, fresh)
        for f in failures:
            print("FAIL:", f, file=sys.stderr)
        if not failures:
            print(f"check OK: {len(points)} point(s) identical to committed "
                  f"{results.name}; properties hold")
        return 1 if failures else 0

    if args.update:
        committed["description"] = description
        for path in stale:
            _drop(committed, path)
        for path, point in points:
            _put(committed, path, point)
        _write(results, committed)
    return 0
