"""Baseline collective-I/O strategies the paper compares against.

The paper's related-work section (and [Kotz94b]'s taxonomy) names three
alternatives to server-directed I/O; we implement all of them, and an
ablation of server direction itself, on the same simulated machine so
the benchmark harness can reproduce the qualitative comparison:

- :func:`~repro.baselines.naive_striping.run_naive_striping` --
  **compute-node-directed, uncached**: every client writes/reads its
  own strided pieces of a striped row-major file directly, in its own
  order.  The disk sees many small non-sequential requests ("servicing
  disk i/o requests as they arrive in random order").
- :func:`~repro.baselines.naive_striping.run_traditional_caching` --
  **traditional caching** (Intel CFS style, [Pierce93]): the same
  request stream, but each I/O node runs a Unix-style buffer cache with
  prefetch and write-behind.  The cache recovers part of the loss;
  [Kotz93b] measured CFS at about half the raw disk bandwidth.
- :mod:`repro.baselines.two_phase` -- **two-phase I/O**
  ([Bordawekar93]): compute nodes first permute data among themselves
  into a distribution conforming to the file layout, then perform
  large contiguous I/O.
- :mod:`repro.baselines.client_directed` -- Panda's own disk layout
  written by clients pushing their pieces, without server direction.

All of them move real bytes (verified against the written layout) and
run the same way (:mod:`repro.baselines.common`): a phase is
:meth:`BaselineRuntime.execute`, which spawns one I/O daemon per I/O
node (:mod:`repro.baselines.daemon`) and one client per compute rank,
and every client talks to the daemons through the one piece exchange,
:meth:`BaselineRuntime.exchange`.  Their messages are the BASELINE rows
of Panda's protocol table (:data:`repro.core.protocol.MESSAGES`), so
``python -m repro lint`` checks the daemon, the flush and shutdown and
two-phase's permutation like Panda's own modules.
"""

from repro.baselines.client_directed import run_client_directed
from repro.baselines.common import (
    BaselineResult,
    BaselineRuntime,
    StripedLayout,
)
from repro.baselines.naive_striping import (
    run_naive_striping,
    run_traditional_caching,
)
from repro.baselines.two_phase import run_two_phase

__all__ = [
    "BaselineResult",
    "BaselineRuntime",
    "StripedLayout",
    "run_client_directed",
    "run_naive_striping",
    "run_traditional_caching",
    "run_two_phase",
]
