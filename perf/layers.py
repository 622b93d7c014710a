"""Per-layer attribution of a cProfile run, measured from outside.

Layers are this repository's modules, bucketed by file path.  Nothing
here imports ``repro``: a function belongs to a layer because of the
file it was defined in, so a later PR that moves code between modules
moves time between layers without touching this file.

Two views of one profile:

- :func:`bucket` -- self time and call counts per layer.  Self time of
  frames outside the repository (C builtins, numpy, the stdlib) is
  pushed up the caller edges, in proportion to pstats' per-edge times,
  until it lands in a repository frame; time that never reaches one
  goes to ``other``.  The buckets partition the profiled total.
- :func:`probes` -- call count and cumulative time of named public
  entry points, looked up as (file suffix, function name).
"""

from __future__ import annotations

import pathlib
import pstats
import re
from typing import Dict, Optional, Tuple

LAYERS = (
    "sim", "mpi", "fs", "schema", "core.plan", "core.costmodel",
    "core.scheduler", "core.protocol", "core.recovery", "obs", "replay",
    "workloads", "other",
)

#: first matching path fragment wins, so single files are listed before
#: the package that holds them.
_LAYER_PATHS = (
    ("/repro/core/plan.py", "core.plan"),
    ("/repro/core/costmodel.py", "core.costmodel"),
    ("/repro/core/scheduler.py", "core.scheduler"),
    ("/repro/core/recovery.py", "core.recovery"),
    ("/repro/faults.py", "core.recovery"),
    ("/repro/core/", "core.protocol"),
    ("/repro/sim/", "sim"),
    ("/repro/mpi/", "mpi"),
    ("/repro/fs/", "fs"),
    ("/repro/schema/", "schema"),
    ("/repro/obs/", "obs"),
    ("/repro/replay/", "replay"),
    ("/repro/workloads/", "workloads"),
    ("/repro/bench/", "workloads"),
    ("/repro/machine.py", "workloads"),
    ("/repro/counters.py", "workloads"),
    ("/perf/", "workloads"),
    ("/repro/", "other"),
)

#: probe name -> (file suffix under src/, function name).  Same-named
#: definitions in one file (MemoryStore.write / ExtentStore.write) sum.
PROBES = {
    "sim.run": ("repro/sim/engine.py", "run"),
    "mpi.transfer": ("repro/mpi/network.py", "transfer"),
    "fs.access": ("repro/fs/disk.py", "access"),
    "fs.store_write": ("repro/fs/store.py", "write"),
    "fs.store_read": ("repro/fs/store.py", "read"),
    "schema.chunks_intersecting": ("repro/schema/chunking.py", "chunks_intersecting"),
    "schema.contiguous_runs_within": ("repro/schema/regions.py", "contiguous_runs_within"),
    "schema.extract_region": ("repro/schema/reorganize.py", "extract_region"),
    "schema.inject_region": ("repro/schema/reorganize.py", "inject_region"),
    "core.plan.build_server_plan": ("repro/core/plan.py", "build_server_plan"),
    "core.costmodel.predict": ("repro/core/costmodel.py", "predict"),
    "core.scheduler.push": ("repro/core/scheduler.py", "push"),
    "core.scheduler.admissible": ("repro/core/scheduler.py", "admissible"),
    "core.scheduler.pick": ("repro/core/scheduler.py", "pick"),
    "obs.to_chrome_trace": ("repro/obs/chrome_trace.py", "to_chrome_trace"),
    "obs.analyze": ("repro/obs/critical_path.py", "analyze"),
    "replay.dumps": ("repro/replay/trace.py", "dumps"),
    "replay.loads": ("repro/replay/trace.py", "loads"),
    "replay.replay": ("repro/replay/replayer.py", "replay"),
}

Func = Tuple[str, int, str]


def layer_of(filename: str) -> Optional[str]:
    """The layer a source file belongs to; None for frames outside the
    repository (builtins, numpy, stdlib)."""
    path = filename.replace("\\", "/")
    for fragment, layer in _LAYER_PATHS:
        if fragment in path:
            return layer
    return None


def bucket(stats: pstats.Stats) -> Tuple[Dict[str, Dict[str, float]], float]:
    """``({layer: {"self_s", "share", "calls"}}, profiled total)`` over
    :data:`LAYERS`; the ``self_s`` values sum to the total."""
    table = stats.stats  # func -> (cc, nc, tt, ct, {caller: (nc, cc, tt, ct)})
    layer = {func: layer_of(func[0]) for func in table}
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    memo: Dict[Func, Dict[str, float]] = {}
    on_stack: set = set()

    def landing(func: Func) -> Dict[str, float]:
        """Where time handed up to ``func`` lands, as layer -> fraction
        (sums to 1).  A repository frame keeps it; a foreign frame
        hands it on to its callers, weighted by the cumulative time of
        each edge (call counts when those are all zero).  An edge back
        into a frame already being resolved is a cycle among foreign
        frames and is skipped."""
        lay = layer.get(func)
        if lay is not None:
            return {lay: 1.0}
        if func in memo:
            return memo[func]
        on_stack.add(func)
        edges = {c: e for c, e in table[func][4].items()
                 if c in table and c not in on_stack}
        weight = {c: e[3] for c, e in edges.items()}
        if not any(weight.values()):
            weight = {c: float(e[0]) for c, e in edges.items()}
        total = sum(weight.values())
        out: Dict[str, float] = {}
        for caller, w in weight.items():
            if w > 0:
                for k, v in landing(caller).items():
                    out[k] = out.get(k, 0.0) + v * w / total
        on_stack.discard(func)
        memo[func] = out or {"other": 1.0}
        return memo[func]

    for func, (_cc, nc, tt, _ct, callers) in table.items():
        calls[layer[func] or "other"] += nc
        if layer[func] is not None:
            self_s[layer[func]] += tt
            continue
        # a foreign frame: its self time goes to whoever called it,
        # split by the self time pstats recorded on each caller edge
        edges = {c: e[2] for c, e in callers.items() if c in table and e[2] > 0}
        edge_total = sum(edges.values())
        if edge_total <= 0:
            self_s["other"] += tt
            continue
        on_stack.add(func)
        for caller, edge_tt in edges.items():
            for k, v in landing(caller).items():
                self_s[k] += tt * v * edge_tt / edge_total
        on_stack.discard(func)
    total = sum(entry[2] for entry in table.values())
    return {
        name: {
            "self_s": self_s[name],
            "share": self_s[name] / total if total > 0 else 0.0,
            "calls": calls[name],
        }
        for name in LAYERS
    }, total


def _defined(src_root: pathlib.Path, suffix: str, name: str) -> bool:
    path = src_root / suffix
    if not path.is_file():
        return False
    return re.search(rf"^\s*def {re.escape(name)}\(", path.read_text(), re.M) is not None


def probes(stats: pstats.Stats, src_root: pathlib.Path) -> Dict[str, Optional[Dict[str, float]]]:
    """``{probe: {"calls", "cum_s"}}``; a probe whose function is no
    longer defined in its file maps to None."""
    out: Dict[str, Optional[Dict[str, float]]] = {}
    for probe, (suffix, name) in PROBES.items():
        if not _defined(src_root, suffix, name):
            out[probe] = None
            continue
        n_calls, cum = 0, 0.0
        for (filename, _line, funcname), (_cc, nc, _tt, ct, _callers) in stats.stats.items():
            if funcname == name and filename.replace("\\", "/").endswith(suffix):
                n_calls += nc
                cum += ct
        out[probe] = {"calls": n_calls, "cum_s": cum}
    return out
