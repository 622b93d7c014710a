"""Workload names, why each is here, and their input sizes.

Kept free of library imports so the driver (``run.py``) can list
workloads without paying for numpy and ``repro``; the generators that
consume these sizes are in ``workloads.py``.

The full sizes are cut from the issue's (2500 tenants, 48 timesteps,
200 soak tenants, 8 storm rounds, the 512 MB observed column) so that
one repetition takes 1.5-2.5 s and at least five fit in one run of
``BENCHMARK.json``'s ``run_seconds``; no workload was dropped and the
two paper grids are whole.  Smoke sizes are roughly a tenth.
"""

from __future__ import annotations

#: name -> why (one line, at most 200 characters: it is copied into
#: BENCHMARK.json), whether ``--seed`` changes the input, and the sizes.
WORKLOADS = {
    "fig8_write_trad": {
        "why": "paper Fig 8 grid, 24 cold writes (32 compute, 2-8 I/O, 16-512 MB, BLOCK^3 to "
               "BLOCK,*,* on disk, virtual bytes): flagship reorganising path; "
               "sim+mpi+protocol+schema, no scheduler or obs",
        "seeded": False,
        "full": {"sizes_mb": (16, 32, 64, 128, 256, 512), "ionodes": (2, 4, 6, 8)},
        "smoke": {"sizes_mb": (16, 64), "ionodes": (2, 8)},
    },
    "fig7_read_trad": {
        "why": "paper Fig 7 grid, 24 points each read twice after an untimed priming write: "
               "same layers the other way round (sequential read + scatter), so a write-side "
               "gain that costs reads shows",
        "seeded": False,
        "full": {"sizes_mb": (16, 32, 64, 128, 256, 512), "ionodes": (2, 4, 6, 8), "reads": 2},
        "smoke": {"sizes_mb": (16, 64), "ionodes": (2, 8), "reads": 2},
    },
    "tenants_sharded": {
        "why": "1000 single-rank tenants, one 8 KB write each at 1000 ops/s, 16 I/O, 16 shard "
               "masters, fair, fast disk: admission plane (scheduler, costmodel.predict, "
               "build_server_plan); bytes are nil",
        "seeded": False,
        "full": {"tenants": 1000, "n_io": 16, "n_shards": 16},
        "smoke": {"tenants": 100, "n_io": 16, "n_shards": 16},
    },
    "timestep_real": {
        "why": "8 compute, 4 I/O, two real 16 MB float64 arrays (one BLOCK,*,* on disk, one "
               "natural), 18 timestep writes over two datasets, 6 verified read-backs: the "
               "byte-copying data plane, few events",
        "seeded": True,
        "full": {"shape": (128, 128, 128), "runs": 6, "steps_per_run": 3},
        "smoke": {"shape": (64, 64, 64), "runs": 2, "steps_per_run": 3},
    },
    "soak_failover": {
        "why": "64 tenants x 6 cycles on one runtime, 8 I/O, 4 shards, slo policy, real 8 KB "
               "payloads, a server crash in cycles 1-4 under 1% drop, 5% delay, 1% disk "
               "faults: recovery, retries, failover",
        "seeded": True,
        "full": {"tenants": 64, "n_io": 8, "n_shards": 4, "cycles": 6},
        "smoke": {"tenants": 8, "n_io": 8, "n_shards": 4, "cycles": 4},
    },
    "storm_replay": {
        "why": "8-tenant, 4-round checkpoint storm (8192 elements x 1,2,8) captured under fifo, "
               "dumps -> loads, replayed bit-exact, then under sjf, fair, slo: the replay "
               "layer; only workload with all four policies",
        "seeded": True,
        "full": {"tenants": 8, "rounds": 4, "elements": 8192},
        "smoke": {"tenants": 4, "rounds": 2, "elements": 2048},
    },
    "observed_mix": {
        "why": "Fig 8's 256 MB column (4 points) plus 150 tenants on 16 I/O, 4 shards, each run "
               "obs-off then traced with metrics attached, analysed and exported: the only "
               "workload where obs does the work",
        "seeded": False,
        "full": {"size_mb": 256, "ionodes": (2, 4, 6, 8), "tenants": 150, "n_io": 16,
                 "n_shards": 4},
        "smoke": {"size_mb": 64, "ionodes": (2, 8), "tenants": 40, "n_io": 16, "n_shards": 4},
    },
}

#: ``--selftest`` canaries: workload -> the corruption its check must catch.
CANARIES = {
    "timestep_real": "corrupt_readback",
    "tenants_sharded": "drop_tenant",
    "storm_replay": "flip_payload",
}
