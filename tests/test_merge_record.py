"""The merge record's transitions, one table row per edge, with no ring.

``replica.merge`` is None (normal), a stalled :class:`Merge`, or an owing
one (released by timeout; the debt is ``outside``).  Each row starts the
reconciliation mixin from one phase, drives one transition, and checks
the phase, the record's fields and what the engine sent or replayed.
The engine and replica are stand-ins: a transition only touches the
record, the buffer, a timer and the marker multicast.
"""

from types import SimpleNamespace

import pytest

from repro.replication.reconciliation import Merge, MergeReconciliation
from repro.replication.replica import LocalReplica
from repro.totem.events import TransitionalConfiguration

ROUND = (200, ("n1", "n2", "n3"))
CHURN = (204, ("n1", "n2", "n3"))


class _Timer:
    def __init__(self, callback):
        self.callback = callback
        self.cancelled = False

    def cancel(self):
        self.cancelled = True


class _Endpoint:
    def __init__(self):
        self.events = []
        self.timers = []

    def emit(self, category, detail=None, size=0):
        self.events.append(category)

    def timer(self, delay, callback, label=""):
        self.timers.append(_Timer(callback))
        return self.timers[-1]


class _Engine(MergeReconciliation):
    """Node n3's reconciliation mixin over stand-in collaborators."""

    node_id = "n3"
    merge_stall_timeout = 0.25

    def __init__(self, replica):
        self.ep = _Endpoint()
        self.replicas = {replica.group: replica}
        self.sent = []
        self.replayed = []
        self.adopted = []
        self.leases = SimpleNamespace(sync=lambda replica: None)

    def _ring_of(self, group):
        return 0

    def _member_for(self, group):
        return SimpleNamespace(
            send=lambda groups, payload, size=0: self.sent.append(payload))

    def _replay_buffered(self, replica):
        self.replayed += replica.buffered
        replica.buffered = []

    def _adopt_with_fulfillment(self, replica, capture, adopted):
        self.adopted.append(capture)

    def churn(self, transitional, ring_key):
        """Deliver the transitional configuration into ``ring_key``."""
        self._on_ring_config(0, TransitionalConfiguration(
            (ring_key[0] - 4, ()), ring_key, transitional))


def _replica():
    return SimpleNamespace(
        group="ctr", ready=True, members=("n1", "n2", "n3"),
        ever_members={"n1", "n2", "n3"}, side_rep="n1", merge=None,
        buffered=[], pre_change_members=None, resync_pending=False,
        unserved=set())


def _start(phase):
    """n3 merges back alone into ring ROUND: the secondary side."""
    replica = _replica()
    engine = _Engine(replica)
    if phase == "normal":
        return engine, replica
    engine.churn(("n3",), ROUND)
    if phase == "announced":
        replica.merge.announced = True
    elif phase == "owing":
        engine.ep.timers[-1].callback()
    engine.ep.events.clear()
    engine.sent.clear()
    engine.replayed.clear()
    return engine, replica


def _marker(engine, replica, sender, round_key=ROUND):
    engine._deliver_reconciled(
        replica, ("ft-reconciled", "ctr", sender, round_key), (200, 9))


def _phase(replica):
    if replica.merge is None:
        return "normal"
    return "stalled" if replica.merge.stalled else "owing"


def arm(engine, replica):
    engine.churn(("n3",), ROUND)
    merge = replica.merge
    assert merge.outside == {"n1", "n2"} and merge.since == 200
    assert merge.awaiting == {"n1", "n2", "n3"} and merge.round == ROUND
    assert not merge.announced and replica.side_rep == "n3"
    assert engine.ep.events == ["ft.merge.stall"] and engine.sent == []


def rearm_quiet(engine, replica):
    _marker(engine, replica, "n2")
    first = engine.ep.timers[-1]
    engine.churn(("n1", "n2", "n3"), CHURN)
    assert replica.merge.awaiting == {"n1", "n3"}
    assert replica.merge.round == CHURN and first.cancelled
    assert engine.sent == [] and engine.ep.events == []


def rearm_announced(engine, replica):
    engine.churn(("n1", "n2", "n3"), CHURN)
    assert replica.merge.awaiting == {"n1", "n2", "n3"}
    assert engine.sent == [("ft-reconciled", "ctr", "n3", CHURN)]


def stale_marker(engine, replica):
    _marker(engine, replica, "n1", CHURN)
    assert replica.merge.awaiting == {"n1", "n2", "n3"}
    assert engine.ep.events == ["ft.merge.reconciled.stale"]


def all_markers(engine, replica):
    replica.buffered = [("request", (200, 5))]
    for host in ("n1", "n2", "n3"):
        _marker(engine, replica, host)
    assert engine.replayed == [("request", (200, 5))]
    assert engine.ep.timers[-1].cancelled
    assert engine.ep.events == ["ft.merge.stall.released"]


def timeout(engine, replica):
    replica.buffered = [("request", (200, 5))]
    engine.ep.timers[-1].callback()
    assert replica.merge.outside == {"n1", "n2"}
    assert engine.replayed == [("request", (200, 5))]


def adoption(engine, replica):
    engine._consider_capture(replica, "capture", "n1")
    assert engine.adopted == ["capture"] and replica.side_rep == "n1"
    assert engine.sent == [("ft-reconciled", "ctr", "n3", None)]


def adoption_while_stalled(engine, replica):
    engine._consider_capture(replica, "capture", "n1")
    assert replica.merge.announced
    assert engine.sent == [("ft-reconciled", "ctr", "n3", ROUND)]


def forget_hosts(engine, replica):
    LocalReplica.forget_host(replica, "n1")
    assert _phase(replica) == "owing" and replica.merge.outside == {"n2"}
    LocalReplica.forget_host(replica, "n2")
    assert replica.ever_members == {"n3"}


def forget_host_while_stalled(engine, replica):
    LocalReplica.forget_host(replica, "n1")
    LocalReplica.forget_host(replica, "n2")
    assert replica.merge.outside == set()
    engine.ep.timers[-1].callback()   # nothing left to owe


def arm_from_owing(engine, replica):
    engine.churn(("n2", "n3"), (208, ("n1", "n2", "n3")))
    assert replica.merge.outside == {"n1"} and replica.merge.since == 208
    assert engine.ep.events == ["ft.merge.stall"]


def make_ready(engine, replica):
    engine._make_ready(replica)
    assert replica.side_rep == "n1"


# (row id, starting phase, edge, phase after)
ROWS = [
    ("arm", "normal", arm, "stalled"),
    ("re-arm on churn keeps the awaited hosts", "stalled", rearm_quiet,
     "stalled"),
    ("re-arm re-announces if announced", "announced", rearm_announced,
     "stalled"),
    ("stale-round marker is ignored", "stalled", stale_marker, "stalled"),
    ("all markers delivered", "stalled", all_markers, "normal"),
    ("timeout leaves the debt", "stalled", timeout, "owing"),
    ("adoption settles the debt", "owing", adoption, "normal"),
    ("adoption while stalled keeps the stall", "stalled",
     adoption_while_stalled, "stalled"),
    ("forget_host empties the debt", "owing", forget_hosts, "normal"),
    ("timeout owing nobody", "stalled", forget_host_while_stalled, "normal"),
    ("a new arm from owing", "owing", arm_from_owing, "stalled"),
    ("readiness", "owing", make_ready, "normal"),
]


@pytest.mark.parametrize("start, edge, after",
                         [row[1:] for row in ROWS], ids=[row[0] for row in ROWS])
def test_merge_record_edge(start, edge, after):
    engine, replica = _start(start)
    edge(engine, replica)
    assert _phase(replica) == after


def test_only_an_outside_host_still_awaited_is_fenced():
    merge = Merge({"n1", "n2"}, 200)
    assert not merge.fences("n1")          # owing: nothing is fenced
    merge.awaiting = {"n1", "n3"}
    assert merge.fences("n1")
    assert not merge.fences("n2")          # its marker was delivered
    assert not merge.fences("n3")          # our own side
