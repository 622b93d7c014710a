"""EXPERIMENTS.md quotes the committed tables; it keeps no copy of them.

Each claim renders one phrase of EXPERIMENTS.md from the committed
``BENCH_paper.json`` (the storm row from ``BENCH_storm.json``) at the
rounding the document prints.  A number that drifts from the table, in
the document or in the table, fails the claim that quotes it.
"""

import json
import math
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
TEXT = re.sub(r"\s+", " ", (ROOT / "EXPERIMENTS.md").read_text())
PAPER = json.loads((ROOT / "BENCH_paper.json").read_text())
STORM = json.loads((ROOT / "BENCH_storm.json").read_text())["herd"]["policies"]
DISK_WRITE_MBPS = 4 * 2.23  # four I/O nodes at the AIX write peak


def at(path):
    doc = PAPER
    for key in path.split("/"):
        doc = doc[key]
    return doc


def secs(point, field="elapsed"):
    return float.fromhex(point[field])


def grid(fig, field="normalized", n_io=None):
    """Every cell of a figure (one I/O-node column if ``n_io``)."""
    return [p[field] for mb, row in at(fig).items() if mb.isdigit()
            for n, p in row.items() if n_io is None or n == str(n_io)]


def span(values, fmt=".2f"):
    return f"{min(values):{fmt}}–{max(values):{fmt}}"


def t1(key):
    return at(f"table1/{key}")["measured"]


def fig6_spread():
    return max(abs(w - r) / max(w, r) for w, r in zip(
        grid("fig6", "aggregate_mbps"), grid("fig5", "aggregate_mbps")))


def fig9_worst():
    mb, n = min(((mb, n) for mb in at("fig9") if mb.isdigit()
                 for n in at(f"fig9/{mb}")),
                key=lambda c: at(f"fig9/{c[0]}/{c[1]}")["normalized"])
    return f"our worst case {at(f'fig9/{mb}/{n}')['normalized']:.2f} at {mb} MB / {n} ionodes"


def fig9_gain():
    gains = [p["normalized"] / at(f"fig9/{mb}/{n}")["normalized"] - 1
             for mb, row in at("fig9/nonblocking").items()
             for n, p in row.items()]
    return sum(gains) / len(gains) * 100


def startup_ms():
    return [secs(p) * 1000 for row in at("startup").values()
            for p in row.values()]


def write_share(name):
    return at(f"strategies/{name}")["write_mbps"] / DISK_WRITE_MBPS * 100


def sd(schema):
    return at(f"server_direction/{schema}")


def loc(layout):
    return at(f"locality/{layout}")


def storm(policy, field):
    return STORM[policy][field]


CLAIMS = {
    "table1/aix_read": lambda: f"| 2.85 MB/s | {t1('aix_read_mbps'):.2f} MB/s |",
    "table1/aix_write": lambda: f"| 2.23 MB/s | {t1('aix_write_mbps'):.2f} MB/s |",
    "table1/latency": lambda: f"| 43 µs | {t1('mpi_latency_us'):.0f} µs (43 µs",
    "table1/bandwidth": lambda: f"| 34 MB/s | {t1('mpi_bandwidth_mbps'):.1f} MB/s |",
    "table1/constants": lambda: (
        f"| {t1('disk_rate_mbps'):.1f} MB/s, {t1('fs_block_kb')} KB, "
        f"{t1('total_nodes')}, {t1('node_memory_mb')} MB | identical"),
    "table1/small_requests": lambda: (
        f"(64 KB writes: ~{at('table1/write_by_request_kb/64')['mbps']:.1f} MB/s)"),
    "fig3": lambda: (
        f"Measured: normalised {span(grid('fig3'))} everywhere (band held); "
        "aggregate " + " / ".join(f"{at(f'fig3/512/{n}')['aggregate_mbps']:.1f}"
                                  for n in (2, 4, 8)) + " MB/s"),
    "fig4": lambda: (
        f"Measured: normalised {span(grid('fig4'))}; aggregate "
        + " / ".join(f"{at(f'fig4/512/{n}')['aggregate_mbps']:.2f}"
                     for n in (2, 4, 8)) + " MB/s"),
    "fig5": lambda: (
        f"Measured: {at('fig5/512/8')['normalized']:.2f} at 512 MB falling to "
        f"{at('fig5/16/8')['normalized']:.2f} at 16 MB on 8 I/O nodes"),
    "fig5/peak": lambda: (
        f"aggregate up to {max(grid('fig5', 'aggregate_mbps', 8)):.0f} MB/s "
        "on 8 I/O nodes"),
    "fig6": lambda: (
        f"Measured: write grid within {math.ceil(fig6_spread() * 100)} % of "
        "the read grid at every point"),
    "fig7": lambda: f"Measured: normalised {span(grid('fig7'))} (within band",
    "fig7/six_ionodes": lambda: (
        f"HPF-rounding imbalance dip ({span(grid('fig7', n_io=6))})"),
    "fig8": lambda: f"Measured: normalised {span(grid('fig8'))}; fetch-message",
    "fig9": lambda: f"Measured: {span(grid('fig9'))} (inside the band; {fig9_worst()}",
    "fig9/nonblocking": lambda: f"compared point by ~{fig9_gain():.0f} %",
    "startup": lambda: (
        f"| {span(startup_ms(), '.1f')} ms across 8–32 CN × 2–8 ION; "
        f"{secs(at('startup/32/8')) * 1000:.1f} ms at 32 CN / 8 ION |"),
    "multiarray": lambda: (
        f"3×64 MB group: {at('multiarray/group_of_3')['aggregate_mbps']:.2f} "
        f"MB/s vs single: {at('multiarray/one_array')['aggregate_mbps']:.2f} MB/s"),
    "load_imbalance": lambda: (
        "max/mean server load: "
        f"{at('load_imbalance/natural/8/3')['imbalance']:.3f} (8 CN) → "
        f"{at('load_imbalance/natural/64/3')['imbalance']:.3f} (64 CN)"),
    "subchunk": lambda: (
        f"real disk: {at('subchunk/64')['real_disk_mbps']:.2f} (64 KB) → "
        f"{at('subchunk/1024')['real_disk_mbps']:.2f} MB/s (1 MB)"),
    "strategies": lambda: "write MB/s: " + ", ".join(
        f"{label} {at(f'strategies/{name}')['write_mbps']:.2f}"
        for name, label in (("panda-natural", "Panda-natural"),
                            ("panda-traditional", "Panda-traditional"),
                            ("two-phase", "two-phase"),
                            ("traditional-caching", "traditional caching"),
                            ("naive-striping", "naive striping"))),
    "strategies/disk_shares": lambda: (
        f"server-directed captures ~{write_share('panda-natural'):.0f} % of "
        f"the disk subsystem, two-phase ~{write_share('two-phase'):.0f} % "
        "(permutation + cross-stream seeks), CFS-style caching "
        f"~{write_share('traditional-caching'):.0f} %"),
    "costmodel": lambda: f"across {len(at('costmodel'))} figure-style configs",
    "io_sharing": lambda: (
        "dedicated 2+2 ionodes → "
        f"{secs(at('io_sharing/dedicated'), 'a'):.2f} s each; shared pool of "
        f"4 → {secs(at('io_sharing/shared-unscheduled'), 'a'):.2f} s for the "
        "first-arriving app, "
        f"{secs(at('io_sharing/shared-unscheduled'), 'b'):.2f} s for the second"),
    "server_direction/natural": lambda: (
        "client-directed ties server-directed "
        f"({sd('natural')['client_directed_mbps']:.2f} vs "
        f"{sd('natural')['server_directed_mbps']:.2f} MB/s"),
    "server_direction/traditional": lambda: (
        f"server-directed {sd('traditional')['server_directed_mbps']:.2f} vs "
        f"client-directed {sd('traditional')['client_directed_mbps']:.3f} MB/s "
        "(**≈{:.0f}×**)".format(round(
            sd("traditional")["server_directed_mbps"]
            / sd("traditional")["client_directed_mbps"], -3))),
    "storm": lambda: (
        f"turnaround spread fifo {storm('fifo', 'turnaround_spread'):.4f} s, "
        f"sjf {storm('sjf', 'turnaround_spread'):.4f} s (size-aware "
        "reordering, mean −{:.0f} %), ".format(
            (1 - storm("sjf", "turnaround_mean")
             / storm("fifo", "turnaround_mean")) * 100)
        + f"slo {storm('slo', 'turnaround_spread'):.4f} s "
        f"({storm('slo', 'demoted')} demotions"),
    "locality": lambda: (
        f"row-major = {loc('row-major')['requests']} requests / "
        f"{secs(loc('row-major')):.0f} s; aligned 32³ chunks = "
        f"{loc('chunked-32')['requests']} requests / "
        f"{secs(loc('chunked-32')):.2f} s "
        "(≈{:.0f}×); ".format(round(secs(loc("row-major"))
                                     / secs(loc("chunked-32")), -1))
        + f"*unaligned* 64³ chunks = {loc('chunked-64')['requests']} requests"),
}


@pytest.mark.parametrize("claim", sorted(CLAIMS))
def test_experiments_doc_quotes_the_committed_table(claim):
    phrase = re.sub(r"\s+", " ", CLAIMS[claim]())
    assert phrase in TEXT, f"EXPERIMENTS.md does not say: {phrase}"
