"""Small-surface unit coverage: message types, profiles, records."""

import pytest

from repro.simnet import LinkProfile, Simulator
from repro.totem.messages import (
    DataMessage,
    JoinMessage,
    MemberInfo,
    RecoveryDone,
    RecoveryRequest,
    RingBeacon,
    RingId,
    Token,
)
from repro.workloads.generators import RequestRecord


def test_ring_id_identity_and_successor():
    ring = RingId(8, ["n3", "n1", "n2"])
    assert ring.members == ("n1", "n2", "n3")
    assert ring.representative == "n1"
    assert ring.successor_of("n1") == "n2"
    assert ring.successor_of("n3") == "n1"  # wraps around
    same = RingId(8, ["n2", "n3", "n1"])
    assert ring == same and hash(ring) == hash(same)
    assert ring != RingId(12, ["n1", "n2", "n3"])
    assert ring.key() == (8, ("n1", "n2", "n3"))


def test_token_repr_names_its_ring():
    ring = RingId(4, ["a", "b"])
    token = Token(ring, token_id=3, seq=10, rtr={5, 6}, rotation_min=4, safe_seq=2)
    assert "ring=4" in repr(token)


def test_data_message_retransmit_copy():
    ring = RingId(4, ["a", "b"])
    msg = DataMessage(ring, 3, "a", "payload", 64, "agreed")
    retransmit = msg.copy_for_retransmit()
    assert retransmit.retransmit and not msg.retransmit
    assert retransmit.seq == 3 and retransmit.payload == "payload"


def test_message_reprs_are_informative():
    ring = RingId(4, ["a", "b"])
    assert "Join" in repr(JoinMessage("a", {"a"}, set(), 4))
    assert "Beacon" in repr(RingBeacon(ring, "a"))
    assert "RecoveryRequest" in repr(RecoveryRequest(ring.key(), [1, 2], "a"))
    assert "RecoveryDone" in repr(RecoveryDone(ring.key(), "a"))
    assert "MemberInfo" in repr(MemberInfo("a", ring.key(), 1, 2, (2,)))


def test_link_profile_serialization_math():
    profile = LinkProfile(bandwidth=1000.0, per_hop_overhead=100)
    assert profile.serialization_delay(900) == pytest.approx(1.0)
    assert "LinkProfile" in repr(profile)


def test_trace_reset_counters():
    sim = Simulator()
    sim.emit("x", size=10)
    sim.trace.reset_counters()
    assert sim.trace.count("x") == 0
    assert sim.trace.bytes("x") == 0


def test_request_record_unfinished_latency():
    record = RequestRecord("op", (1,), send_time=5.0)
    assert record.latency is None
    assert not record.ok
    record.complete_time = 5.5
    assert record.latency == pytest.approx(0.5)
    assert record.ok
    assert "op" in repr(record)
