#!/usr/bin/env python
"""The paper's Figure 2 application: a timestep simulation with
checkpoint and restart.

Three arrays (temperature, pressure, density) are distributed
BLOCK,BLOCK,* over an 8-processor mesh, stored on disk in traditional
order (BLOCK,*,*), and written out every timestep with a single
collective call; a checkpoint is taken halfway, and after a simulated
crash the computation restarts from it.

(The paper's example uses 512^3 arrays on 64 processors; we scale the
grid down so the example carries real bytes and verifies itself, while
keeping every schema exactly as in Figure 2.  Figure 2's group also
names a schema file, "simulation2.schema"; here each dataset's schema
is written beside its data as ``{dataset}.schema``, e.g.
``Sim2.t00000.schema``, so the group takes only its name.)

Run:  python examples/simulation_checkpoint.py
"""

import numpy as np

from repro.core import (
    Array,
    ArrayGroup,
    ArrayLayout,
    BLOCK,
    NONE,
    PandaRuntime,
)
from repro.machine import MB
from repro.workloads import distribute, make_global_array

TIMESTEPS = 10
CHECKPOINT_AT = 5
N_COMPUTE, N_IO = 8, 2

# --- array schema information (Figure 2, scaled) -------------------------
array_rank = 3
temperature_size = (32, 32, 32)
pressure_size = (32, 32, 32)
density_size = (16, 16, 16)

memory = ArrayLayout("memory layout", (4, 2))     # 8 processors
disk = ArrayLayout("disk layout", (2, 1))         # traditional order-ish
memory_dist = (BLOCK, BLOCK, NONE)
disk_dist = (BLOCK, BLOCK, NONE)

temperature = Array("temperature", temperature_size, np.int32,
                    memory, memory_dist, disk, disk_dist)
pressure = Array("pressure", pressure_size, np.float64,
                 memory, memory_dist, disk, disk_dist)
density = Array("density", density_size, np.float64,
                memory, memory_dist, disk, disk_dist)

simulation = ArrayGroup("Sim2")
simulation.include(temperature)
simulation.include(pressure)
simulation.include(density)


def main():
    arrays = (temperature, pressure, density)
    initial = {
        a.name: distribute(
            make_global_array(a.shape, dtype=a.dtype), a.memory_schema
        )
        for a in arrays
    }

    def compute_next_timestep(locals_):
        """A stand-in physics kernel: deterministic per-step update."""
        for name, arr in locals_.items():
            arr += 1 if arr.dtype.kind == "i" else 0.5

    def app(ctx):
        locals_ = {
            a.name: ctx.bind(a, initial[a.name][ctx.rank].copy())
            for a in arrays
        }
        crashed = False
        i = 0
        while i < TIMESTEPS:
            compute_next_timestep(locals_)
            yield from ctx.compute(0.01)  # the computation itself
            # collective i/o: all three arrays with one request
            yield from simulation.timestep(ctx)
            if i == CHECKPOINT_AT:
                yield from simulation.checkpoint(ctx)
            if i == CHECKPOINT_AT + 2 and not crashed:
                # simulated crash: lose all state, restart from checkpoint
                crashed = True
                for arr in locals_.values():
                    arr[...] = 0
                yield from simulation.restart(ctx)
                i = CHECKPOINT_AT  # resume after the checkpointed step
            i += 1

    runtime = PandaRuntime(n_compute=N_COMPUTE, n_io=N_IO)
    result = runtime.run(app)

    # --- verification: final state matches an uninterrupted run -----------
    for a in arrays:
        per_step = 1 if np.dtype(a.dtype).kind == "i" else 0.5
        # restart rewound 2 computed steps, so net = TIMESTEPS steps
        expected_delta = TIMESTEPS * per_step
        g = make_global_array(a.shape, dtype=a.dtype)
        for rank in range(N_COMPUTE):
            got = runtime._client_state[rank]["data"][a.name]
            region = a.memory_schema.chunk(rank).region
            want = g[region.slices()] + np.asarray(expected_delta, a.dtype)
            np.testing.assert_array_equal(got, want)

    io_bytes = sum(o.total_bytes for o in result.ops)
    io_time = sum(o.elapsed for o in result.ops)
    print(f"ran {TIMESTEPS} timesteps (+2 replayed after the crash) on "
          f"{N_COMPUTE} compute / {N_IO} I/O nodes")
    print(f"collective ops: {len(result.ops)} "
          f"({sum(1 for o in result.ops if o.kind == 'write')} writes, "
          f"{sum(1 for o in result.ops if o.kind == 'read')} reads)")
    print(f"I/O volume {io_bytes / MB:.1f} MB in {io_time:.2f} s simulated "
          f"({io_bytes / io_time / MB:.2f} MB/s)")
    print(f"datasets in catalog: {len(runtime.catalog)} "
          f"(timesteps, checkpoints)")
    print("post-restart state verified against an uninterrupted run")


if __name__ == "__main__":
    main()
