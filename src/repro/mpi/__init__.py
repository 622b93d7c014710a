"""Message-passing substrate: an MPI-like layer over the simulator.

The model is calibrated to the NAS SP2 figures in Table 1 of the paper:
43 microseconds one-way latency and 34 MB/s point-to-point bandwidth
(the measured MPI-F numbers; the 40 MB/s figure is switch hardware).

Contention model: each node has a half-duplex *out* link and *in* link,
both FIFO.  A transfer holds the sender's out link and the receiver's
in link for ``nbytes / bandwidth`` seconds; propagation latency is
added afterwards and does not occupy links.  This reproduces the two
effects the paper's analysis depends on: a node can neither send nor
receive faster than 34 MB/s, and concurrent senders to one node
serialise.
"""

from repro.mpi.comm import Communicator, LivelockError
from repro.mpi.datatypes import DataBlock
from repro.mpi.message import CONTROL_MESSAGE_BYTES, Message
from repro.mpi.network import Network

__all__ = [
    "CONTROL_MESSAGE_BYTES",
    "Communicator",
    "DataBlock",
    "LivelockError",
    "Message",
    "Network",
]
