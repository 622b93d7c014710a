"""The protocol table (``repro.core.protocol.MESSAGES``) and what is
read off it.

Every receive loop builds its listen set from the table.  These pins
compare those sets, per server role, discipline and fault mode and per
client role and op kind, with the literal sets the server and client
built before the table existed -- so a row edit that changes who
listens for what fails here, not as a hang.
"""

import numpy as np
import pytest

from repro.core import (BLOCK, NONE, Array, ArrayLayout, PandaConfig,
                        PandaRuntime, SchedulerConfig)
from repro.core import protocol
from repro.core.protocol import (BASELINE, DAEMON, DROPPABLE, EXCHANGE_TAGS,
                                 MESSAGES, MODES, Tags, listen_tags)
from repro.faults import FaultSpec
from repro.mpi.comm import Communicator
from repro.workloads.apps import write_read_roundtrip_app

N_COMPUTE = 2


def _server_listen(master: bool, sharded: bool, wire: int,
                   reliable: bool) -> frozenset:
    """The listen set ``PandaServer.run`` spelled out tag by tag."""
    listen = {Tags.SHUTDOWN}
    if master:
        listen |= {Tags.REQUEST, Tags.SERVER_DONE}
    if not master or sharded:
        listen |= {wire}
        if reliable:
            listen |= {Tags.RECOVER}
    return frozenset(listen)


def _client_listen(master: bool, kind: str) -> frozenset:
    """The tag set ``PandaClient._serve`` spelled out tag by tag."""
    tags = {Tags.FETCH if kind == "write" else Tags.PIECE,
            Tags.OP_DONE if master else Tags.CLIENT_DONE}
    if master:
        tags.add(Tags.OP_REJECTED)
    return frozenset(tags)


_SETUPS = {
    # name: (scheduler, n_io, shard masters)
    "paper": (None, 2, 1),
    "scheduled": (SchedulerConfig("fifo", max_in_flight=2), 2, 1),
    "sharded": (SchedulerConfig("fifo", n_shards=2), 3, 2),
}


@pytest.mark.parametrize("fault", [False, True], ids=["clean", "fault"])
@pytest.mark.parametrize("setup", sorted(_SETUPS))
def test_listen_sets_match_the_literal_sets(monkeypatch, setup, fault):
    scheduler, n_io, n_masters = _SETUPS[setup]
    seen = {}
    match_pred = Communicator.match_pred

    def spy(self, src=None, tag=None, tags=None, match=None):
        if tags is not None:
            seen.setdefault(self.rank, set()).add(frozenset(tags))
        return match_pred(self, src, tag, tags, match)

    monkeypatch.setattr(Communicator, "match_pred", spy)
    a = Array("a", (16, 8), np.float64, ArrayLayout("mem", (N_COMPUTE,)),
              (BLOCK, NONE))
    rt = PandaRuntime(
        n_compute=N_COMPUTE, n_io=n_io, real_payloads=False,
        config=PandaConfig(scheduler=scheduler,
                           faults=FaultSpec(seed=0) if fault else None))
    rt.run(write_read_roundtrip_app([a], "ds"))
    wire = Tags.SCHEMA if scheduler is None else Tags.SCHED
    for i in range(n_io):
        assert seen[rt.server_rank(i)] == {_server_listen(
            i < n_masters, n_masters > 1, wire, fault)}, i
    for rank in range(N_COMPUTE):
        assert seen[rank] == {_client_listen(rank == 0, kind)
                              for kind in ("write", "read")}, rank


def test_exchange_and_droppable_tags():
    # the piece exchange's tags, and the injector's drop set as it was
    # spelled out before the table
    assert EXCHANGE_TAGS == {"write": (Tags.FETCH, Tags.DATA),
                             "read": (Tags.PIECE, Tags.PIECE_ACK)}
    assert DROPPABLE == {Tags.FETCH, Tags.DATA, Tags.PIECE, Tags.PIECE_ACK}



#: every Panda role's listen set per mode (a mode with none is left
#: out), as it was before the baselines' rows joined the table
_PANDA_LISTEN = {
    protocol.CLIENT: {},
    protocol.MASTER_CLIENT: {"always": {Tags.OP_DONE},
                             "scheduled": {Tags.OP_REJECTED}},
    protocol.MEMBER_CLIENT: {"always": {Tags.CLIENT_DONE}},
    protocol.SERVER: {"always": {Tags.SHUTDOWN}},
    protocol.MASTER_SERVER: {"always": {Tags.REQUEST, Tags.SERVER_DONE}},
    protocol.PEER_SERVER: {"fault": {Tags.RECOVER}, "paper": {Tags.SCHEMA},
                           "scheduled": {Tags.SCHED}},
    protocol.RUNTIME: {},
}


@pytest.mark.parametrize("role", sorted(_PANDA_LISTEN))
def test_baseline_rows_are_invisible_to_panda(role):
    # per mode, and over every mode at once as the client's done-tag
    # sets are built
    expected = _PANDA_LISTEN[role]
    for mode in MODES:
        assert listen_tags((role,), (mode,)) == expected.get(mode, set())
    assert listen_tags((role,), MODES) == set().union(*expected.values())


def test_baseline_rows_have_roles_of_their_own():
    rows = [m for m in MESSAGES if m.when == BASELINE]
    assert [m.tag for m in rows] == list(range(30, 38))
    assert {m.sender for m in rows} | {m.receiver for m in rows} == {
        protocol.BASELINE_CLIENT, DAEMON}
    assert all(m.exchange is None for m in rows)
    assert listen_tags((DAEMON,), (BASELINE,)) == {
        Tags.DAEMON_WRITE, Tags.DAEMON_READ, Tags.DAEMON_FLUSH,
        Tags.DAEMON_SHUTDOWN}
