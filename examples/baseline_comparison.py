#!/usr/bin/env python
"""Server-directed I/O against the alternatives, on one workload.

Runs the same 16 MB collective write and read through:

- Panda (server-directed, natural chunking),
- Panda with a traditional-order disk schema,
- two-phase I/O [Bordawekar93],
- traditional caching (Intel CFS style),
- naive compute-node-directed striping,

all on the same simulated NAS SP2 (8 compute nodes, 4 I/O nodes), and
prints the comparison the paper makes qualitatively in its related-work
section.

Run:  python examples/baseline_comparison.py
"""


from repro.bench.harness import STRATEGIES, compare_strategies
from repro.bench.report import format_rows
from repro.machine import MB, NAS_SP2

N_COMPUTE, N_IO = 8, 4
SHAPE = (128, 128, 128)  # 16 MB of float64
LABELS = {
    "panda-natural": "Panda (natural chunking)",
    "panda-traditional": "Panda (traditional order)",
    "two-phase": "two-phase I/O",
    "traditional-caching": "traditional caching (CFS)",
    "naive-striping": "naive striping",
}


def main():
    thr = compare_strategies(N_COMPUTE, N_IO, SHAPE)
    disk = N_IO * NAS_SP2.fs_write_peak
    rows = [[
        LABELS[name],
        f"{thr[name]['write'] / MB:.2f}",
        f"{thr[name]['read'] / MB:.2f}",
        f"{thr[name]['write'] / disk * 100:.0f}%",
    ] for name in STRATEGIES]

    print(f"16 MB array, {N_COMPUTE} compute nodes, {N_IO} I/O nodes, "
          "simulated NAS SP2\n")
    print(format_rows(
        rows,
        ["strategy", "write MB/s", "read MB/s", "write %disk"],
    ))
    print(
        "\nthe disk subsystem tops out at "
        f"{disk / MB:.1f} MB/s for writes; "
        "server-directed I/O captures nearly all of it because every\n"
        "server issues only large, strictly sequential requests. "
        "Two-phase pays for its permutation and for cross-client seeks;\n"
        "caching loses to eviction before coalescing; naive striping "
        "pays request overhead and a seek on nearly every strided piece."
    )


if __name__ == "__main__":
    main()
