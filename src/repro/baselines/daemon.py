"""The baselines' I/O daemon: one per I/O node, serving requests in
arrival order.

This is the pre-collective-I/O server the baseline strategies talk to
(:meth:`repro.baselines.common.BaselineRuntime.request`): it knows
nothing of the op, only of byte ranges of one local file.  Its messages
are the BASELINE rows of :data:`repro.core.protocol.MESSAGES`, and
``python -m repro lint`` checks this module against them in the role
``daemon``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.protocol import BASELINE, DAEMON, Tags, listen_tags
from repro.fs.cache import BufferCache
from repro.fs.filesystem import FileSystem
from repro.mpi.comm import Communicator
from repro.mpi.datatypes import DataBlock

__all__ = ["serve"]


def serve(comm: Communicator, fs: FileSystem, cache: Optional[BufferCache],
          path: str):
    """Serve writes and reads of ``path`` on ``fs`` -- through ``cache``
    when the node has one -- and cache flushes, until DAEMON_SHUTDOWN.
    Every request costs one handling charge and gets one reply."""
    fs.store.create(path, truncate=False)
    listen = listen_tags((DAEMON,), (BASELINE,))
    while True:
        msg = yield from comm.recv(tags=listen)
        if msg.tag == Tags.DAEMON_SHUTDOWN:
            return
        yield comm.handle_s
        if msg.tag == Tags.DAEMON_FLUSH:
            if cache is not None:
                yield from cache.flush(path)
            yield from comm.send(msg.src, Tags.DAEMON_FLUSH_ACK)
            continue
        offset, nbytes, block = msg.payload
        if msg.tag == Tags.DAEMON_WRITE:
            data = block.to_buffer() if (block.is_real and fs.real) else None
            if cache is not None:
                yield from cache.write(path, offset, data, nbytes)
            else:
                yield from fs.disk.access(path, offset, nbytes, write=True)
                fs.store.write(path, offset, data, nbytes)
            yield from comm.send(msg.src, Tags.DAEMON_ACK)
            continue
        if cache is not None:
            raw = yield from cache.read(path, offset, nbytes)
        else:
            yield from fs.disk.access(path, offset, nbytes, write=False)
            raw = fs.store.read(path, offset, nbytes)
        if raw is not None:
            reply = DataBlock.real(np.frombuffer(raw, dtype=np.uint8))
        else:
            reply = DataBlock.virtual(nbytes)
        yield from comm.send(msg.src, Tags.DAEMON_DATA, reply, nbytes=nbytes)
