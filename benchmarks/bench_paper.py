#!/usr/bin/env python
"""The paper's evaluation as one gated table: Figures 3-9, Table 1, the
section 3 text claims, the ablations and the future-work extensions.

Every value is *simulated* and therefore deterministic: ``--check``
demands an exact match against the committed ``BENCH_paper.json`` for
every point it ran, then checks the paper's claims against the
committed document (so ``--smoke --check`` still checks every band).
Each study prints its paper-style table as it runs.

Key paths, one study per top-level key:

- ``fig3`` .. ``fig9``: ``<figure>/<MB>/<I/O nodes>`` holds ``elapsed``
  (float hex), ``aggregate_mbps`` and ``normalized``;
  ``<figure>/verdict`` the critical-path verdict of the smallest point;
  and the points the figure's claims compare against:
  ``fig5/real_disk``, ``fig6/messages``, ``fig7/natural``,
  ``fig8/messages``, ``fig8/natural``, ``fig9/natural``,
  ``fig9/nonblocking``;
- ``table1/<row>`` and ``table1/write_by_request_kb/<KB>``;
- ``startup``, ``multiarray``, ``load_imbalance``, ``subchunk``,
  ``strategies``, ``costmodel``, ``fault_sweep``, ``crash``,
  ``io_sharing``, ``locality``, ``server_direction``.

Usage::

    python benchmarks/bench_paper.py            # full table, print
    python benchmarks/bench_paper.py --update   # rewrite BENCH_paper.json
    python benchmarks/bench_paper.py --smoke    # 16 MB rows + Table 1
    python benchmarks/bench_paper.py --smoke --check   # quick CI gate
    python benchmarks/bench_paper.py --check --out paper.json
"""

from __future__ import annotations

import math
import pathlib
import sys
from dataclasses import replace

import gate

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.baselines import BaselineRuntime, run_client_directed  # noqa: E402
from repro.bench import (  # noqa: E402
    EXPERIMENTS,
    PointResult,
    format_figure,
    format_rows,
    run_figure,
    run_panda_point,
    shape_for_mb,
)
from repro.bench.harness import (  # noqa: E402
    STRATEGIES,
    build_array,
    compare_strategies,
    fs_peak,
    measure_table1,
)
from repro.bench.report import TABLE1_ROWS, format_table1  # noqa: E402
from repro.core import PandaConfig, PandaRuntime  # noqa: E402
from repro.core.costmodel import predict_arrays  # noqa: E402
from repro.core.plan import build_server_plan  # noqa: E402
from repro.core.protocol import CollectiveOp, Tags  # noqa: E402
from repro.core.sequential import SequentialPanda, row_major_schema  # noqa: E402
from repro.faults import FaultSpec  # noqa: E402
from repro.machine import KB, MB, NAS_SP2, sp2  # noqa: E402
from repro.schema import DataSchema, Region  # noqa: E402
from repro.workloads import write_array_app  # noqa: E402
from repro.workloads.catalog import WriterGroupsParams, build  # noqa: E402

DESCRIPTION = (
    "The paper's evaluation from benchmarks/bench_paper.py: every "
    "cell of Figures 3-9 (elapsed as float hex, aggregate MB/s, "
    "normalised throughput) with each figure's bottleneck verdict, "
    "Table 1, the section 3 claims (startup, multiple arrays, load "
    "imbalance), the sub-chunk and server-direction ablations, the "
    "strategy comparison, the cost-model validation, fault and crash "
    "recovery, I/O-node sharing and sequential locality, on the "
    "simulated NAS SP2 with virtual payloads.  All values are "
    "simulated and exactly reproducible; CI runs --check against them."
)

#: the rows and columns the figures' claims compare on
NATURAL_CHECK = ((64, 512), (2, 4, 8))
FIG9_CHECK = ((64, 512), (2, 8))


def panda(p: PointResult) -> dict:
    return {"elapsed": p.elapsed.hex(), "aggregate_mbps": p.aggregate_mbps,
            "normalized": p.normalized()}


def elapsed(point: dict, field: str = "elapsed") -> float:
    """A point's simulated seconds, stored as float hex."""
    return float.fromhex(point[field])


def at(doc: dict, path: str):
    """The committed point at ``path`` (``fig8/64/4``); a missing one
    raises ``KeyError``, which :func:`properties` reports."""
    for key in path.split("/"):
        doc = doc[key]
    return doc


def approx(actual: float, expected: float, rel=None, abs=None) -> bool:
    """``actual == pytest.approx(expected, rel=rel, abs=abs)``."""
    tol = abs if rel is None else max(rel * math.fabs(expected), 1e-12)
    return math.fabs(actual - expected) <= tol


def message_count(point: PointResult, tag: int) -> int:
    """Messages tagged ``tag`` in a traced point's timed run."""
    run = point.run
    t0 = run.runtime.sim.now - run.elapsed
    return sum(1 for m in run.trace.records
               if m.time >= t0 and m.kind == "message"
               and m.detail["tag"] == tag)


# -- Figures 3-9 ---------------------------------------------------------------

def figure(name: str, smoke: bool) -> dict:
    exp = EXPERIMENTS[name]
    grid = run_figure(replace(exp, sizes_mb=(16,)) if smoke else exp)
    section = {str(mb): {str(n): panda(p) for n, p in row.items()}
               for mb, row in grid.items()}
    traced = run_panda_point(
        exp.kind, exp.n_compute, exp.ionodes[0], exp.shape(exp.sizes_mb[0]),
        disk_schema=exp.disk_schema, fast_disk=exp.fast_disk, trace=True)
    section["verdict"] = {"line": traced.run.critical_path().verdict_line()}
    if not smoke:
        section.update(FIGURE_EXTRAS.get(name, dict)())
    return section


def points(runs) -> dict:
    """``{MB: {I/O nodes: point}}`` from ``(MB, n_io, PointResult)``."""
    out: dict = {}
    for mb, n_io, p in runs:
        out.setdefault(str(mb), {})[str(n_io)] = panda(p)
    return out


def fig5_extra() -> dict:
    # the 64 MB / 8 I/O-node read again, on the real disk
    return {"real_disk": points(
        [(64, 8, run_panda_point("read", 32, 8, shape_for_mb(64)))])}


def fig6_extra() -> dict:
    # one data message per sub-chunk piece, either direction
    def count(kind, tag):
        return message_count(run_panda_point(
            kind, 32, 4, shape_for_mb(16), fast_disk=True, trace=True), tag)

    return {"messages": {"16": {"4": {
        "write_data": count("write", Tags.DATA),
        "read_piece": count("read", Tags.PIECE)}}}}


def fetch_count(disk_schema: str) -> int:
    return message_count(run_panda_point(
        "write", 32, 4, shape_for_mb(16), disk_schema=disk_schema,
        trace=True), Tags.FETCH)


def fig7_extra() -> dict:
    sizes, ionodes = NATURAL_CHECK
    return {"natural": points(
        (mb, n, run_panda_point("read", 32, n, shape_for_mb(mb),
                                disk_schema="natural"))
        for mb in sizes for n in ionodes)}


def fig8_extra() -> dict:
    return {
        "messages": {"16": {"4": {"fetch_natural": fetch_count("natural"),
                                  "fetch_traditional":
                                      fetch_count("traditional")}}},
        "natural": points([(128, 4, run_panda_point(
            "write", 32, 4, shape_for_mb(128), disk_schema="natural"))]),
    }


def fig9_extra() -> dict:
    sizes, ionodes = FIG9_CHECK
    cells = [(mb, n) for mb in sizes for n in ionodes]
    return {
        "natural": points(
            (mb, n, run_panda_point("write", 16, n, shape_for_mb(mb),
                                    disk_schema="natural", fast_disk=True))
            for mb, n in cells),
        # the paper's conjecture: non-blocking rearrangement helps
        "nonblocking": points(
            (mb, n, run_panda_point("write", 16, n, shape_for_mb(mb),
                                    disk_schema="traditional",
                                    fast_disk=True,
                                    config=PandaConfig(nonblocking=True)))
            for mb, n in cells),
    }


FIGURE_EXTRAS = {"fig5": fig5_extra, "fig6": fig6_extra, "fig7": fig7_extra,
                 "fig8": fig8_extra, "fig9": fig9_extra}


def render_figure(name: str, section: dict) -> str:
    exp = EXPERIMENTS[name]
    grid = {int(mb): {int(n): PointResult(
                exp.kind, exp.n_compute, int(n), int(mb) * MB,
                exp.disk_schema, exp.fast_disk, elapsed(p))
                for n, p in row.items()}
            for mb, row in section.items() if mb.isdigit()}
    out = [format_figure(name, exp.title, grid), "",
           f"{name} bottleneck ({exp.sizes_mb[0]} MB, {exp.ionodes[0]} ION): "
           + section["verdict"]["line"]]
    if "nonblocking" in section:
        rows = [[f"{mb} MB", str(n),
                 f"{at(section, f'{mb}/{n}')['normalized']:.2f}",
                 f"{at(section, f'nonblocking/{mb}/{n}')['normalized']:.2f}"]
                for mb in FIG9_CHECK[0] for n in FIG9_CHECK[1]]
        out += ["", f"{name} extension: blocking vs non-blocking "
                "rearrangement", "",
                format_rows(rows, ["array", "ionodes", "blocking",
                                   "non-blocking"])]
    return "\n".join(out)


# -- Table 1 and the section 3 claims --------------------------------------------

def table1(_smoke: bool) -> dict:
    section = {key: {"measured": value}
               for key, value in measure_table1().items()}
    # the paper's reason for the small-chunk decline: small requests
    section["write_by_request_kb"] = {
        str(kb): {"mbps": fs_peak(write=True, file_mb=file_mb,
                                  request=kb * KB) / MB}
        for kb, file_mb in ((1024, 32), (256, 8), (64, 2))}
    return section


def render_table1(section: dict) -> str:
    return format_table1({key: section[key]["measured"]
                          for key, *_ in TABLE1_ROWS})


def startup(_smoke: bool) -> dict:
    # a collective of negligible volume on an infinitely fast disk
    return {str(c): {str(i): {"elapsed": run_panda_point(
                "write", c, i, (8, 8, 8), fast_disk=True).elapsed.hex()}
                for i in (2, 4, 8)}
            for c in (8, 16, 32)}


def render_startup(section: dict) -> str:
    rows = [[c, i, f"{elapsed(p) * 1000:.1f} ms"]
            for c, row in section.items() for i, p in row.items()]
    return ("startup overhead (paper: ~13 ms)\n\n"
            + format_rows(rows, ["compute", "ionodes", "elapsed"]))


def multiarray(_smoke: bool) -> dict:
    def mbps(n_arrays, shape, fast_disk=False):
        return {"aggregate_mbps": run_panda_point(
            "write", 8, 4, shape, n_arrays=n_arrays,
            fast_disk=fast_disk).aggregate_mbps}

    group = run_panda_point("write", 8, 4, (64, 64, 64), n_arrays=3,
                            trace=True)
    return {
        # 3 x 64 MB group against one 64 MB array
        "one_array": mbps(1, (128, 256, 256)),
        "group_of_3": mbps(3, (128, 256, 256)),
        "group_requests": {"REQUEST": message_count(group, Tags.REQUEST)},
        # 2 MB against 4 KB chunks: MPI latency becomes the bottleneck
        "fast_disk_chunks": {"2MB": mbps(1, (128, 128, 128), True),
                             "4KB": mbps(1, (16, 16, 16), True)},
    }


def render_multiarray(section: dict) -> str:
    rows = [["1 array", f"{section['one_array']['aggregate_mbps']:.2f}"],
            ["3-array group",
             f"{section['group_of_3']['aggregate_mbps']:.2f}"]]
    return ("multiple arrays (64 MB each, real disk)\n\n"
            + format_rows(rows, ["workload", "MB/s"]))


def imbalance(n_compute: int, n_io: int, disk_schema: str) -> dict:
    """max / mean server bytes of one 64 MB write plan."""
    arr = build_array((128, 256, 256), n_compute, n_io, disk_schema)
    op = CollectiveOp(op_id=0, kind="write", dataset="x",
                      arrays=(arr.spec(),))
    loads = [build_server_plan(op, s, n_io, PandaConfig()).total_bytes
             for s in range(n_io)]
    return {"imbalance": max(loads) / (sum(loads) / len(loads))}


def load_imbalance(_smoke: bool) -> dict:
    grid = {"natural": [(c, 3) for c in (8, 16, 32, 64)]
            + [(8, 2), (8, 4), (8, 8)],
            "traditional": [(c, 3) for c in (8, 16, 32)] + [(8, 4)]}
    section: dict = {schema: {} for schema in grid}
    for schema, cells in grid.items():
        for c, n_io in cells:
            section[schema].setdefault(str(c), {})[str(n_io)] = imbalance(
                c, n_io, schema)
    # 8 chunks on 3 servers (3/3/2) against 4 (2 each)
    section["write"] = points(
        (64, n_io, run_panda_point("write", 8, n_io, (128, 256, 256)))
        for n_io in (3, 4))
    return section


def render_load_imbalance(section: dict) -> str:
    rows = [[c, f"{at(section, f'natural/{c}/3')['imbalance']:.3f}"]
            for c in ("8", "16", "32", "64")]
    return ("load imbalance, natural chunking, 3 ionodes "
            "(max/mean server bytes)\n\n"
            + format_rows(rows, ["compute nodes", "imbalance"]))


# -- ablations and extensions ----------------------------------------------------

SUBCHUNK_KB = (64, 256, 1024, 4096)


def subchunk(_smoke: bool) -> dict:
    def mbps(kb, fast_disk):
        return run_panda_point(
            "write", 8, 4, (128, 256, 256), fast_disk=fast_disk,
            config=PandaConfig(sub_chunk_bytes=kb * KB)).aggregate_mbps

    return {str(kb): {"real_disk_mbps": mbps(kb, False),
                      "fast_disk_mbps": mbps(kb, True)}
            for kb in SUBCHUNK_KB}


def render_subchunk(section: dict) -> str:
    rows = [[f"{kb} KB", f"{p['real_disk_mbps']:.2f}",
             f"{p['fast_disk_mbps']:.2f}"] for kb, p in section.items()]
    return ("sub-chunk size ablation, 64 MB write, 8 CN / 4 ION "
            "(aggregate MB/s)\n\n"
            + format_rows(rows, ["sub-chunk", "real disk", "fast disk"]))


def strategies(_smoke: bool) -> dict:
    thr = compare_strategies(8, 4, shape_for_mb(16))
    return {name: {"write_mbps": thr[name]["write"] / MB,
                   "read_mbps": thr[name]["read"] / MB}
            for name in STRATEGIES}


def render_strategies(section: dict) -> str:
    rows = [[name, f"{p['write_mbps']:.2f}", f"{p['read_mbps']:.2f}"]
            for name, p in section.items()]
    return ("strategy comparison, 16 MB array, 8 CN / 4 ION "
            "(aggregate MB/s)\n\n"
            + format_rows(rows, ["strategy", "write", "read"]))


#: (kind, compute nodes, I/O nodes, MB, disk schema, fast disk)
COSTMODEL_CASES = (
    ("write", 8, 2, 64, "natural", False),
    ("write", 8, 8, 512, "natural", False),
    ("read", 8, 4, 128, "natural", False),
    ("read", 32, 8, 256, "natural", False),
    ("write", 32, 4, 64, "traditional", False),
    ("read", 32, 6, 128, "traditional", False),
    ("write", 32, 8, 512, "natural", True),
    ("read", 32, 2, 64, "natural", True),
    ("write", 16, 4, 256, "traditional", True),
    ("write", 16, 8, 16, "traditional", True),
)


def case_key(case) -> str:
    kind, n_cn, n_io, mb, schema, fast = case
    return f"{kind}-{n_cn}-{n_io}-{mb}MB-{schema}-{'fast' if fast else 'real'}"


def costmodel(_smoke: bool) -> dict:
    section = {}
    for case in COSTMODEL_CASES:
        kind, n_cn, n_io, mb, schema, fast = case
        shape = shape_for_mb(mb)
        sim = run_panda_point(kind, n_cn, n_io, shape, disk_schema=schema,
                              fast_disk=fast).elapsed
        pred = predict_arrays([build_array(shape, n_cn, n_io, schema)],
                              kind, n_cn, n_io, sp2(fast_disk=fast))
        section[case_key(case)] = {"simulated": sim.hex(),
                                   "predicted": pred.elapsed.hex(),
                                   "bottleneck": pred.bottleneck}
    return section


def render_costmodel(section: dict) -> str:
    rows = []
    for case in COSTMODEL_CASES:
        kind, n_cn, n_io, mb, schema, fast = case
        p = section[case_key(case)]
        sim, pred = elapsed(p, "simulated"), elapsed(p, "predicted")
        rows.append([kind, f"{n_cn}/{n_io}", f"{mb} MB", schema,
                     "fast" if fast else "real", f"{sim:.3f}", f"{pred:.3f}",
                     f"{(pred - sim) / sim * 100:+.1f}%", p["bottleneck"]])
    return ("cost-model validation (predicted vs simulated elapsed, s)\n\n"
            + format_rows(rows, ["op", "CN/ION", "size", "schema", "disk",
                                 "simulated", "predicted", "error",
                                 "bottleneck"]))


FAULT_SHAPE = (64, 256, 256)  # 32 MB, written by 8 CN to 4 ION
DROP_RATES = (0.0, 0.01, 0.03, 0.10)
CRASH_AT = 0.5  # seconds into the (multi-second) timed write


def fault_point(faults: FaultSpec, *counters: str) -> dict:
    """One 32 MB collective write under ``faults``: its elapsed,
    aggregate MB/s and the run's ``counters``."""
    arr = build_array(FAULT_SHAPE, 8, 4, "natural")
    rt = PandaRuntime(n_compute=8, n_io=4, config=PandaConfig(faults=faults),
                      real_payloads=False)
    result = rt.run(write_array_app([arr], "bench"))
    op = result.ops[-1]
    return {"elapsed": op.elapsed.hex(),
            "aggregate_mbps": op.total_bytes / op.elapsed / MB,
            **{name: result.counters[name] for name in counters}}


def fault_sweep(_smoke: bool) -> dict:
    # disk faults ride along at half the message-drop rate
    return {f"{rate:.2f}": fault_point(
                FaultSpec(seed=11, msg_drop_rate=rate,
                          disk_fault_rate=rate / 2)
                if rate else FaultSpec(seed=11),
                "messages_dropped", "disk_faults", "fault_retries",
                "faults_injected")
            for rate in DROP_RATES}


def render_fault_sweep(section: dict) -> str:
    rows = [[rate, f"{p['aggregate_mbps']:.2f}", str(p["messages_dropped"]),
             str(p["disk_faults"]), str(p["fault_retries"])]
            for rate, p in section.items()]
    return ("fault-rate sweep, 32 MB write, 8 CN / 4 ION (aggregate MB/s)"
            "\n\n" + format_rows(rows, ["drop rate", "MB/s", "drops", "disk",
                                        "retries"]))


def crash(_smoke: bool) -> dict:
    counters = ("server_crashes", "recoveries")
    return {"fault-free": fault_point(FaultSpec(seed=7), *counters),
            "ion2": fault_point(FaultSpec(seed=7, crashes=((2, CRASH_AT),)),
                                *counters)}


def render_crash(section: dict) -> str:
    base, hit = section["fault-free"], section["ion2"]
    rows = [["fault-free", f"{base['aggregate_mbps']:.2f}", "-", "-"],
            [f"crash ION2 @ {CRASH_AT}s", f"{hit['aggregate_mbps']:.2f}",
             str(hit["server_crashes"]), str(hit["recoveries"])]]
    return ("I/O-node crash mid-write, 32 MB, 8 CN / 4 ION\n\n"
            + format_rows(rows, ["scenario", "MB/s", "crashes",
                                 "recoveries"]))


#: two applications, each writing 16 MB from a 2x2 compute mesh
SHARING = WriterGroupsParams(policy=None, n_apps=2, n_compute=8, n_io=4,
                             mem_mesh=(2, 2))
SHARING_VARIANTS = (("dedicated", "dedicated"),
                    ("shared-unscheduled", "shared unsched"),
                    ("shared-fifo", "shared fifo"),
                    ("shared-fair", "shared fair"))


def io_sharing(_smoke: bool) -> dict:
    # dedicated: each app alone on its own 4 compute and 2 I/O nodes
    dedicated = {}
    for i, name in enumerate("ab"):
        built = build(replace(SHARING, n_io=2))
        res = built.runtime.run_partitioned([built.assignments[i]])
        dedicated[name] = res.ops[0].elapsed.hex()
    section = {"dedicated": dedicated}
    # shared: both apps on one 4-I/O-node pool under each policy
    for key, policy in (("shared-unscheduled", None), ("shared-fifo", "fifo"),
                        ("shared-fair", "fair")):
        built = build(replace(SHARING, policy=policy))
        res = built.run()
        section[key] = {
            name: next(o.elapsed for o in res.ops if ranks[0] in o.enters
                       ).hex()
            for name, (_app, ranks) in zip("ab", built.assignments)}
    return section


def render_io_sharing(section: dict) -> str:
    times = {key: {app: float.fromhex(t) for app, t in section[key].items()}
             for key, _label in SHARING_VARIANTS}
    rows = [[f"app {app}"] + [f"{times[key][app]:.2f}"
                              for key, _ in SHARING_VARIANTS]
            for app in "ab"]
    rows.append(["combined (max)"] + [f"{max(times[key].values()):.2f}"
                                      for key, _ in SHARING_VARIANTS])
    return ("I/O-node sharing: 2 apps x 16 MB writes; dedicated 2+2 "
            "ionodes vs shared pool of 4 under the inter-op scheduler "
            "(elapsed, s)\n\n"
            + format_rows(rows, [""] + [label for _, label
                                        in SHARING_VARIANTS]))


LOCALITY_SHAPE = (128, 128, 128)  # 16 MB of doubles
WORKING_SET = Region((32, 32, 32), (96, 96, 96))  # aligned 64^3 = 2 MB
LOCALITY_LAYOUTS = {"row-major": None, "chunked-64": 2, "chunked-32": 4,
                    "chunked-16": 8}


def locality(_smoke: bool) -> dict:
    section = {}
    for name, parts in LOCALITY_LAYOUTS.items():
        schema = (row_major_schema(LOCALITY_SHAPE) if parts is None else
                  DataSchema.build(LOCALITY_SHAPE, (parts,) * 3,
                                   ["BLOCK"] * 3))
        sp = SequentialPanda(real=False)
        sp.store("a", None, schema)
        _, stats = sp.load_subarray("a", WORKING_SET)
        section[name] = {"requests": stats.requests,
                         "bytes_read": stats.bytes_read,
                         "elapsed": stats.elapsed.hex()}
    return section


def render_locality(section: dict) -> str:
    rows = [[name.replace("chunked-", "chunked ")
             + ("^3" if name != "row-major" else ""),
             str(p["requests"]), f"{elapsed(p):.2f}",
             f"{p['bytes_read'] / elapsed(p) / MB:.2f}"]
            for name, p in section.items()]
    return ("sequential-consumer locality: 64^3 working set from a "
            "128^3 array (one workstation)\n\n"
            + format_rows(rows, ["layout", "disk requests", "elapsed s",
                                 "MB/s"]))


def server_direction(_smoke: bool) -> dict:
    # identical chunked layout; only who directs the data flow changes
    section = {}
    for schema in ("natural", "traditional"):
        arr = build_array(shape_for_mb(16), 8, 4, schema)
        op = CollectiveOp(op_id=0, kind="write", dataset="x",
                          arrays=(arr.spec(),), client_ranks=tuple(range(8)))
        rt = BaselineRuntime(8, 4, real_payloads=False)
        section[schema] = {
            "server_directed_mbps": run_panda_point(
                "write", 8, 4, shape_for_mb(16),
                disk_schema=schema).aggregate_mbps,
            "client_directed_mbps":
                run_client_directed(rt, op, "write").throughput / MB,
        }
    return section


def render_server_direction(section: dict) -> str:
    rows = [[schema, f"{p['server_directed_mbps']:.2f}",
             f"{p['client_directed_mbps']:.2f}",
             f"{p['server_directed_mbps'] / p['client_directed_mbps']:.1f}x"]
            for schema, p in section.items()]
    return ("server-direction ablation: identical chunked layout, "
            "16 MB write, 8 CN / 4 ION (MB/s)\n\n"
            + format_rows(rows, ["disk schema", "server-directed",
                                 "client-directed", "advantage"]))


def _figure_study(name):
    return (name, lambda smoke: figure(name, smoke),
            lambda section: render_figure(name, section))


#: (top-level key, measure(smoke) -> section, render(section) -> table)
STUDIES = [_figure_study(name) for name in EXPERIMENTS] + [
    ("table1", table1, render_table1),
    ("startup", startup, render_startup),
    ("multiarray", multiarray, render_multiarray),
    ("load_imbalance", load_imbalance, render_load_imbalance),
    ("subchunk", subchunk, render_subchunk),
    ("strategies", strategies, render_strategies),
    ("costmodel", costmodel, render_costmodel),
    ("fault_sweep", fault_sweep, render_fault_sweep),
    ("crash", crash, render_crash),
    ("io_sharing", io_sharing, render_io_sharing),
    ("locality", locality, render_locality),
    ("server_direction", server_direction, render_server_direction),
]
#: what --smoke runs: each figure's 16 MB row, and Table 1
SMOKE = set(EXPERIMENTS) | {"table1"}


def flatten(section: dict, path=()):
    """``(key_path, point)`` for every point of a section: a point is a
    dict with no dict inside it."""
    for key, value in section.items():
        if any(isinstance(v, dict) for v in value.values()):
            yield from flatten(value, path + (key,))
        else:
            yield path + (key,), value


def sweep(smoke: bool):
    for name, measure, render in STUDIES:
        if smoke and name not in SMOKE:
            continue
        section = measure(smoke)
        print(render(section), end="\n\n", flush=True)
        yield from flatten(section, (name,))


# -- properties: the paper's claims, checked on the committed document ----------

def figure_cells(doc, name):
    exp = EXPERIMENTS[name]
    for mb in exp.sizes_mb:
        for n in exp.ionodes:
            yield mb, n, at(doc, f"{name}/{mb}/{n}")


def normalised_bands(doc):
    """Every cell lies in the paper's band, with a little slack below
    (the paper's lower bounds come from its own worst-case points)."""
    for name, exp in EXPERIMENTS.items():
        lo, hi = exp.band
        for mb, n, p in figure_cells(doc, name):
            if not lo - 0.08 <= p["normalized"] <= hi + 0.04:
                yield (f"{name}/{mb}/{n}: normalised {p['normalized']:.3f} "
                       f"outside [{lo}, {hi}]")


def scale_with_ionodes(doc):
    """Real-disk aggregate grows with I/O nodes: doubling them buys at
    least 1.6x."""
    for name in ("fig3", "fig4", "fig7", "fig8"):
        exp = EXPERIMENTS[name]
        for mb in exp.sizes_mb:
            for a, b in zip(exp.ionodes, exp.ionodes[1:]):
                ratio = (at(doc, f"{name}/{mb}/{b}")["aggregate_mbps"]
                         / at(doc, f"{name}/{mb}/{a}")["aggregate_mbps"])
                if ratio < 1.6 * (b / a) / 2:
                    yield f"{name}/{mb}: {a}->{b} ionodes only scaled {ratio:.2f}x"


def normalised_floors(doc):
    """The representative points stay well inside their figure."""
    floors = [("fig3", 64, (2, 4, 8), 0.8), ("fig4", 64, (2, 4, 8), 0.8),
              ("fig5", 256, (2, 4, 8), 0.8), ("fig6", 256, (2, 4, 8), 0.8),
              ("fig7", 64, (2, 6, 8), 0.6), ("fig8", 64, (2, 6, 8), 0.6),
              ("fig5", 512, (2, 4, 8), 0.85)]
    for name, mb, ionodes, floor in floors:
        for n in ionodes:
            norm = at(doc, f"{name}/{mb}/{n}")["normalized"]
            if not norm > floor:
                yield f"{name}/{mb}/{n}: normalised {norm:.3f} <= {floor}"
    for n in EXPERIMENTS["fig9"].ionodes:
        norm = at(doc, f"fig9/128/{n}")["normalized"]
        if not 0.3 < norm < 0.95:
            yield f"fig9/128/{n}: normalised {norm:.3f} outside (0.3, 0.95)"


def fig3_disk_bound(doc):
    """Per-I/O-node throughput barely moves across a 32x size range."""
    exp = EXPERIMENTS["fig3"]
    for n in exp.ionodes:
        per_node = [at(doc, f"fig3/{mb}/{n}")["aggregate_mbps"] / n
                    for mb in exp.sizes_mb]
        if not max(per_node) / min(per_node) < 1.15:
            yield f"fig3/*/{n}: per-ionode throughput spread >= 1.15x"


def fig4_writes_below_reads(doc):
    for mb, n, p in figure_cells(doc, "fig4"):
        if not p["aggregate_mbps"] < at(doc, f"fig3/{mb}/{n}")["aggregate_mbps"]:
            yield f"fig4/{mb}/{n}: write aggregate not below fig3's read"
    per_node = at(doc, "fig4/512/8")["aggregate_mbps"] / 8
    if not per_node > 0.85 * NAS_SP2.fs_write_peak / MB:
        yield f"fig4/512/8: {per_node:.2f} MB/s per ionode, not near AIX peak"


def fig5_startup_decline(doc):
    """Normalised throughput declines for small arrays as startup
    dominates, most where elapsed is shortest; the fast disk is much
    faster than the real one."""
    for n in EXPERIMENTS["fig5"].ionodes:
        if not (at(doc, f"fig5/16/{n}")["normalized"]
                < at(doc, f"fig5/512/{n}")["normalized"]):
            yield f"fig5/16/{n}: not below fig5/512/{n}"
    if not (at(doc, "fig5/16/8")["normalized"]
            <= at(doc, "fig5/16/2")["normalized"] + 0.02):
        yield "fig5/16/8: above fig5/16/2 + 0.02"
    if not (at(doc, "fig5/64/8")["aggregate_mbps"]
            > 5 * at(doc, "fig5/real_disk/64/8")["aggregate_mbps"]):
        yield "fig5/64/8: not 5x fig5/real_disk/64/8"


def fig6_symmetry(doc):
    """Fast-disk writes and reads perform alike, because they send the
    same data messages."""
    for mb, n, p in figure_cells(doc, "fig6"):
        w = p["aggregate_mbps"]
        r = at(doc, f"fig5/{mb}/{n}")["aggregate_mbps"]
        if not abs(w - r) / max(w, r) < 0.10:
            yield f"fig6/{mb}/{n}: write {w:.2f} vs read {r:.2f} MB/s"
    m = at(doc, "fig6/messages/16/4")
    if m["read_piece"] != m["write_data"]:
        yield f"fig6/messages/16/4: {m['read_piece']} PIECE != {m['write_data']} DATA"


def traditional_vs_natural(doc):
    """Reorganisation costs a little, hidden by the disk (Figs 7/8), and
    is exposed on a fast disk (Fig 9)."""
    sizes, ionodes = NATURAL_CHECK
    for mb in sizes:
        for n in ionodes:
            trad = at(doc, f"fig7/{mb}/{n}")["aggregate_mbps"]
            nat = at(doc, f"fig7/natural/{mb}/{n}")["aggregate_mbps"]
            if not trad <= nat * 1.001:
                yield f"fig7/{mb}/{n}: above fig7/natural/{mb}/{n}"
            if not trad >= nat * 0.85:
                yield f"fig7/{mb}/{n}: below 0.85x fig7/natural/{mb}/{n}"
    if not (at(doc, "fig8/128/4")["aggregate_mbps"]
            > 0.85 * at(doc, "fig8/natural/128/4")["aggregate_mbps"]):
        yield "fig8/128/4: not within 15% of fig8/natural/128/4"
    sizes, ionodes = FIG9_CHECK
    for mb in sizes:
        for n in ionodes:
            if not (at(doc, f"fig9/{mb}/{n}")["normalized"]
                    < at(doc, f"fig9/natural/{mb}/{n}")["normalized"] - 0.03):
                yield f"fig9/{mb}/{n}: not 0.03 below fig9/natural/{mb}/{n}"


def six_ionodes(doc):
    """Figs 7/8 add the 6-I/O-node column."""
    if not (at(doc, "fig7/64/6")["aggregate_mbps"]
            > at(doc, "fig7/64/4")["aggregate_mbps"]):
        yield "fig7/64/6: not above fig7/64/4"


def fig8_extra_messages(doc):
    m = at(doc, "fig8/messages/16/4")
    if not m["fetch_traditional"] > m["fetch_natural"]:
        yield "fig8/messages/16/4: traditional order sends no extra FETCH"


def fig9_nonblocking(doc):
    """The paper's conjecture: non-blocking rearrangement never hurts
    and helps at least two of the four points."""
    improved = 0
    sizes, ionodes = FIG9_CHECK
    for mb in sizes:
        for n in ionodes:
            base = at(doc, f"fig9/{mb}/{n}")["normalized"]
            nb = at(doc, f"fig9/nonblocking/{mb}/{n}")["normalized"]
            improved += nb > base + 1e-6
            if not nb >= base - 1e-6:
                yield f"fig9/nonblocking/{mb}/{n}: below fig9/{mb}/{n}"
    if not improved >= 2:
        yield f"fig9/nonblocking: only {improved} point(s) improved"


def table1_reproduced(doc):
    for key, paper, rel in (("aix_read_mbps", 2.85, 0.01),
                            ("aix_write_mbps", 2.23, 0.01),
                            ("mpi_latency_us", 43, 0.05),
                            ("mpi_bandwidth_mbps", 34, 0.02)):
        measured = at(doc, f"table1/{key}")["measured"]
        if not approx(measured, paper, rel=rel):
            yield f"table1/{key}: {measured:.3f}, not {paper} within {rel:.0%}"
    thr = [at(doc, f"table1/write_by_request_kb/{kb}")["mbps"]
           for kb in (64, 256, 1024)]
    if not thr[0] < thr[1] < thr[2]:
        yield "table1/write_by_request_kb: throughput does not rise with request size"


def startup_near_13ms(doc):
    t = {(c, i): elapsed(at(doc, f"startup/{c}/{i}"))
         for c in (8, 16, 32) for i in (2, 4, 8)}
    for (c, i), v in t.items():
        if not 0.006 < v < 0.025:
            yield f"startup/{c}/{i}: {v * 1000:.1f} ms"
    if not approx(t[(32, 8)], 0.013, abs=0.004):
        yield "startup/32/8: not 13 +- 4 ms"
    if not t[(8, 2)] <= t[(32, 8)] < 2.5 * t[(8, 2)]:
        yield "startup/32/8: not within [1, 2.5) x startup/8/2"
    # the 16 MB fast-disk write from 32 CN to 8 ION is fig6's point
    point = elapsed(at(doc, "fig6/16/8"))
    if not point < t[(32, 8)] + 0.1:
        yield "fig6/16/8: data adds 0.1 s or more to startup/32/8"
    if not t[(32, 8)] / point > 0.1:
        yield "startup/32/8: not a visible fraction of fig6/16/8"


def multiarray_claims(doc):
    one = at(doc, "multiarray/one_array")["aggregate_mbps"]
    group = at(doc, "multiarray/group_of_3")["aggregate_mbps"]
    if not approx(group, one, rel=0.05):
        yield "multiarray/group_of_3: not within 5% of multiarray/one_array"
    requests = at(doc, "multiarray/group_requests")["REQUEST"]
    if requests != 1:
        yield f"multiarray/group_requests: {requests} REQUESTs, not 1"
    big = at(doc, "multiarray/fast_disk_chunks/2MB")["aggregate_mbps"]
    small = at(doc, "multiarray/fast_disk_chunks/4KB")["aggregate_mbps"]
    if not small < 0.5 * big:
        yield "multiarray/fast_disk_chunks/4KB: not below half of 2MB"


def load_imbalance_claims(doc):
    imb = {path: at(doc, f"load_imbalance/{path}")["imbalance"] for path in (
        "natural/8/3", "natural/32/3", "natural/64/3", "natural/8/2",
        "natural/8/4", "natural/8/8", "traditional/8/3",
        "traditional/16/3", "traditional/32/3", "traditional/8/4")}
    if not imb["natural/8/3"] > imb["natural/32/3"] >= imb["natural/64/3"]:
        yield "load_imbalance/natural/*/3: does not shrink as compute nodes grow"
    if not imb["natural/64/3"] < 1.1:
        yield "load_imbalance/natural/64/3: not below 1.1"
    for c in (8, 16, 32):
        if not imb[f"traditional/{c}/3"] < 1.01:
            yield f"load_imbalance/traditional/{c}/3: not below 1.01"
    for path in ("traditional/8/4", "natural/8/2", "natural/8/4",
                 "natural/8/8"):
        if not approx(imb[path], 1.0, abs=1e-9):
            yield f"load_imbalance/{path}: {imb[path]!r}, not 1"
    ratio = (elapsed(at(doc, "load_imbalance/write/64/3"))
             / elapsed(at(doc, "load_imbalance/write/64/4")))
    if not approx(ratio, 24 / 16, rel=0.05):
        yield f"load_imbalance/write/64/3: {ratio:.3f}x of /4, not 1.5x"


def subchunk_claims(doc):
    real = {kb: at(doc, f"subchunk/{kb}")["real_disk_mbps"]
            for kb in SUBCHUNK_KB}
    fast = {kb: at(doc, f"subchunk/{kb}")["fast_disk_mbps"]
            for kb in SUBCHUNK_KB}
    if not real[64] < 0.75 * real[1024]:
        yield "subchunk/64: real disk not below 0.75x of 1 MB"
    if not real[256] < real[1024]:
        yield "subchunk/256: real disk not below 1 MB"
    if not real[1024] > 0.95 * max(real.values()):
        yield "subchunk/1024: real disk not within 5% of the best"
    if not real[4096] / real[1024] < 1.20:
        yield "subchunk/4096: real disk gains 20% or more over 1 MB"
    if not fast[64] < fast[1024] <= fast[4096] * 1.05:
        yield "subchunk: fast disk does not prefer large sub-chunks"


def strategy_ordering(doc):
    """Panda >= two-phase > traditional caching >> naive."""
    thr = {name: at(doc, f"strategies/{name}") for name in STRATEGIES}
    for kind in ("write_mbps", "read_mbps"):
        best = max(thr["panda-natural"][kind], thr["panda-traditional"][kind])
        for name in STRATEGIES[2:]:
            if not best > thr[name][kind]:
                yield f"strategies/{name}: {kind} not below Panda's best"
    w = {name: p["write_mbps"] for name, p in thr.items()}
    if not w["two-phase"] > w["traditional-caching"]:
        yield "strategies/two-phase: write not above traditional caching"
    if not w["two-phase"] > 0.6 * w["panda-traditional"]:
        yield "strategies/two-phase: write not above 0.6x panda-traditional"
    frac = w["traditional-caching"] * MB / (4 * NAS_SP2.fs_write_peak)
    if not 0.10 < frac < 0.60:
        yield f"strategies/traditional-caching: {frac:.0%} of the disk"
    if not w["naive-striping"] < 0.1 * w["panda-natural"]:
        yield "strategies/naive-striping: write not below 0.1x panda-natural"
    if not thr["panda-natural"]["read_mbps"] > w["panda-natural"]:
        yield "strategies/panda-natural: read not above write"


def costmodel_accuracy(doc):
    errs = []
    for case in COSTMODEL_CASES:
        key = case_key(case)
        p = at(doc, f"costmodel/{key}")
        sim = elapsed(p, "simulated")
        err = abs(elapsed(p, "predicted") - sim) / sim
        errs.append(err)
        if not err < 0.15:
            yield f"costmodel/{key}: error {err:.1%}"
        if case[5] and p["bottleneck"] not in ("network", "copy"):
            yield f"costmodel/{key}: fast disk bottleneck {p['bottleneck']}"
        if not case[5] and p["bottleneck"] != "disk":
            yield f"costmodel/{key}: real disk bottleneck {p['bottleneck']}"
    if not sum(errs) / len(errs) < 0.07:
        yield f"costmodel: mean error {sum(errs) / len(errs):.1%}"


def faults_cost_throughput(doc):
    """Faults are not free, every slowdown is explained by counted
    retries, and a 1% drop rate costs well under 2x."""
    clean = at(doc, "fault_sweep/0.00")
    worst = at(doc, f"fault_sweep/{DROP_RATES[-1]:.2f}")
    if not elapsed(worst) > elapsed(clean):
        yield "fault_sweep/0.10: not slower than fault_sweep/0.00"
    for counter in ("messages_dropped", "fault_retries"):
        if not worst[counter] > 0:
            yield f"fault_sweep/0.10: no {counter}"
    if clean["faults_injected"] != 0:
        yield "fault_sweep/0.00: faults injected"
    if not elapsed(at(doc, "fault_sweep/0.01")) < 2.0 * elapsed(clean):
        yield "fault_sweep/0.01: 2x or more of fault_sweep/0.00"


def crash_completes_degraded(doc):
    base, hit = at(doc, "crash/fault-free"), at(doc, "crash/ion2")
    for point, counter, want in ((hit, "server_crashes", 1),
                                 (hit, "recoveries", 1),
                                 (base, "server_crashes", 0)):
        if point[counter] != want:
            yield f"crash: {counter} {point[counter]}, not {want}"
    if not elapsed(hit) > elapsed(base):
        yield "crash/ion2: not slower than crash/fault-free"


def io_sharing_claims(doc):
    t = {key: {app: float.fromhex(v)
               for app, v in at(doc, f"io_sharing/{key}").items()}
         for key, _label in SHARING_VARIANTS}
    ded, fifo, fair = t["dedicated"], t["shared-fifo"], t["shared-fair"]
    if not min(fifo.values()) < 0.7 * ded["a"]:
        yield "io_sharing/shared-fifo: the winner does not get the whole pool"
    if not max(fifo.values()) > 1.4 * min(fifo.values()):
        yield "io_sharing/shared-fifo: the loser does not queue"
    spread = {k: max(v.values()) - min(v.values()) for k, v in t.items()}
    if not spread["shared-fair"] < 0.2 * spread["shared-fifo"]:
        yield "io_sharing/shared-fair: spread not below 0.2x fifo's"
    for key in ("shared-unscheduled", "shared-fifo", "shared-fair"):
        if not approx(max(t[key].values()), max(ded.values()), rel=0.15):
            yield f"io_sharing/{key}: makespan not within 15% of dedicated"
    if not approx(ded["a"], ded["b"], rel=1e-9):
        yield "io_sharing/dedicated: the two apps differ"


def locality_claims(doc):
    stats = {name: at(doc, f"locality/{name}") for name in LOCALITY_LAYOUTS}
    rm = stats["row-major"]
    if rm["requests"] != 64 * 64:
        yield "locality/row-major: not one request per row of the working set"
    if not stats["chunked-32"]["requests"] <= rm["requests"] / 100:
        yield "locality/chunked-32: not 100x fewer requests than row-major"
    best = min(elapsed(s) for n, s in stats.items() if n != "row-major")
    if not best < elapsed(rm) / 3:
        yield "locality: no chunked layout 3x faster than row-major"
    if {s["bytes_read"] for s in stats.values()} != {WORKING_SET.size * 8}:
        yield "locality: layouts read different byte counts"


def server_direction_claims(doc):
    nat, trad = (at(doc, f"server_direction/{s}")
                 for s in ("natural", "traditional"))
    if not approx(nat["client_directed_mbps"], nat["server_directed_mbps"],
                  rel=0.12):
        yield "server_direction/natural: client-directed not within 12%"
    if not trad["server_directed_mbps"] > 20 * trad["client_directed_mbps"]:
        yield "server_direction/traditional: server direction not 20x"
    if not (trad["server_directed_mbps"]
            > 0.9 * nat["server_directed_mbps"]):
        yield "server_direction/traditional: server-directed schema-sensitive"


PROPERTIES = (
    normalised_bands, scale_with_ionodes, normalised_floors,
    fig3_disk_bound, fig4_writes_below_reads, fig5_startup_decline,
    fig6_symmetry, traditional_vs_natural, six_ionodes, fig8_extra_messages,
    fig9_nonblocking, table1_reproduced, startup_near_13ms,
    multiarray_claims, load_imbalance_claims, subchunk_claims,
    strategy_ordering, costmodel_accuracy, faults_cost_throughput,
    crash_completes_degraded, io_sharing_claims, locality_claims,
    server_direction_claims,
)


def properties(committed: dict, fresh: dict) -> list:
    """The paper's claims, against the committed full table."""
    failures = []
    for prop in PROPERTIES:
        try:
            failures += [f"{prop.__name__}: {f}" for f in prop(committed)]
        except KeyError as missing:
            failures.append(f"{prop.__name__}: no committed point {missing} "
                            "(run --update without --smoke)")
    return failures


if __name__ == "__main__":
    sys.exit(gate.main(
        results=REPO_ROOT / "BENCH_paper.json", doc=__doc__,
        description=DESCRIPTION,
        smoke_help="run only each figure's 16 MB row and Table 1",
        sweep=sweep, properties=properties))
