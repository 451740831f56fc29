"""Property tests for the repro.wire framing and codec layer.

Every registered frame kind must round-trip through ``encode`` /
``decode_one`` under hypothesis-generated field values, and every
malformed buffer (truncation, corruption, trailing garbage) must raise
:class:`WireFormatError` rather than crash or silently mis-decode.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

# Importing these modules populates the wire-kind registry.
from repro.orb.transport import (
    AckSegment,
    DataSegment,
    FinSegment,
    SynAckSegment,
    SynSegment,
)
from repro.state.transfer import StateChunk
from repro.totem.messages import (
    CommitToken,
    DataMessage,
    HoldCancel,
    JoinMessage,
    MemberInfo,
    RecoveryDone,
    RecoveryRequest,
    RingBeacon,
    RingId,
    Token,
)
from repro.wire.codec import (
    decode_one,
    decode_payload,
    encode,
    registered_kinds,
)
from repro.wire.framing import (
    HEADER_BYTES,
    KIND_BATCH,
    MAX_RING,
    WireFormatError,
    encode_batch,
    encode_frame,
    peek_ring,
)

# ----------------------------------------------------------------------
# Field strategies
# ----------------------------------------------------------------------

ulong = st.integers(min_value=0, max_value=2**32 - 1)
node_id = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789_-",
                  min_size=1, max_size=12)

# A subset of the CDR value universe rich enough to exercise nesting.
scalar = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-2**62, max_value=2**62),
    st.text(max_size=20),
    st.binary(max_size=40),
)
value = st.recursive(
    scalar,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=12,
)

ring_id = st.builds(
    RingId,
    seq=ulong,
    members=st.lists(node_id, min_size=1, max_size=5, unique=True),
)
ring_key = ring_id.map(lambda ring: ring.key())

member_info = st.builds(
    MemberInfo,
    member=node_id,
    old_ring_key=ring_key,
    aru=ulong,
    high_seq=ulong,
    have=st.lists(ulong, max_size=6, unique=True).map(tuple),
)


def _strategies():
    """One instance strategy per registered wire kind."""
    return {
        DataMessage: st.builds(
            DataMessage,
            ring=ring_id,
            seq=ulong,
            sender=node_id,
            payload=value,
            size=st.integers(min_value=0, max_value=256),
            guarantee=st.sampled_from(["agreed", "safe"]),
            retransmit=st.booleans(),
            span=st.one_of(st.none(), st.text(max_size=24)),
        ),
        Token: st.builds(
            Token,
            ring=ring_id,
            token_id=ulong,
            seq=ulong,
            rtr=st.sets(ulong, max_size=6),
            rotation_min=ulong,
            safe_seq=ulong,
        ),
        HoldCancel: st.builds(HoldCancel, ring=ring_id),
        RingBeacon: st.builds(RingBeacon, ring=ring_id, sender=node_id),
        JoinMessage: st.builds(
            JoinMessage,
            sender=node_id,
            proc_set=st.frozensets(node_id, max_size=5),
            fail_set=st.frozensets(node_id, max_size=5),
            max_ring_seq=ulong,
        ),
        CommitToken: st.builds(
            CommitToken,
            ring=ring_id,
            infos=st.lists(member_info, max_size=4).map(
                lambda infos: {info.member: info for info in infos}
            ),
            complete=st.booleans(),
            hop=ulong,
        ),
        RecoveryRequest: st.builds(
            RecoveryRequest,
            ring_key=ring_key,
            seqs=st.lists(ulong, max_size=6, unique=True),
            sender=node_id,
        ),
        RecoveryDone: st.builds(
            RecoveryDone, new_ring_key=ring_key, sender=node_id,
        ),
        SynSegment: st.builds(SynSegment, conn_id=node_id, port=ulong),
        SynAckSegment: st.builds(
            SynAckSegment, conn_id=node_id, peer_conn_id=node_id,
        ),
        DataSegment: st.builds(
            DataSegment,
            dest_conn_id=node_id,
            src_conn_id=node_id,
            seq=ulong,
            payload=st.binary(max_size=100),
        ),
        AckSegment: st.builds(AckSegment, dest_conn_id=node_id, seq=ulong),
        FinSegment: st.builds(
            FinSegment, dest_conn_id=st.one_of(st.none(), node_id),
        ),
        StateChunk: st.builds(
            StateChunk,
            index=ulong,
            total=ulong,
            data=st.binary(max_size=100),
        ),
    }


STRATEGIES = _strategies()


def _norm(field):
    if isinstance(field, (bytes, bytearray, memoryview)):
        return bytes(field)
    return field


def assert_equal_fields(decoded, original):
    assert type(decoded) is type(original)
    for slot in type(original).__slots__:
        assert _norm(getattr(decoded, slot)) == _norm(getattr(original, slot)), slot


any_message = st.one_of(list(STRATEGIES.values()))


# ----------------------------------------------------------------------
# Coverage: the strategy table must track the registry
# ----------------------------------------------------------------------

def test_every_registered_kind_has_a_strategy():
    registered = {cls for _, cls in registered_kinds().values()}
    assert registered == set(STRATEGIES), (
        "wire kinds without a round-trip strategy: %s"
        % sorted(cls.__name__ for cls in registered ^ set(STRATEGIES))
    )


# ----------------------------------------------------------------------
# Round trips
# ----------------------------------------------------------------------

@pytest.mark.parametrize(
    "cls", sorted(STRATEGIES, key=lambda c: c.__name__),
    ids=lambda c: c.__name__,
)
def test_kind_roundtrip(cls):
    strategy = STRATEGIES[cls]

    @given(strategy)
    @settings(max_examples=60, deadline=None)
    def check(message):
        assert_equal_fields(decode_one(encode(message)), message)

    check()


@given(st.lists(any_message, min_size=2, max_size=5))
@settings(max_examples=40, deadline=None)
def test_batch_roundtrip(messages):
    data = encode_batch([encode(m) for m in messages])
    decoded = decode_payload(data)
    assert len(decoded) == len(messages)
    for out, original in zip(decoded, messages):
        assert_equal_fields(out, original)


@given(st.lists(any_message, min_size=1, max_size=4))
@settings(max_examples=40, deadline=None)
def test_concatenated_frames_roundtrip(messages):
    data = b"".join(encode(m) for m in messages)
    decoded = decode_payload(data)
    assert len(decoded) == len(messages)
    for out, original in zip(decoded, messages):
        assert_equal_fields(out, original)


# ----------------------------------------------------------------------
# Malformed input: always WireFormatError, never a crash
# ----------------------------------------------------------------------

@given(any_message, st.data())
@settings(max_examples=80, deadline=None)
def test_truncated_frame_raises(message, data):
    encoded = encode(message)
    cut = data.draw(st.integers(min_value=0, max_value=len(encoded) - 1))
    with pytest.raises(WireFormatError):
        decode_payload(encoded[:cut])


@given(any_message, st.data())
@settings(max_examples=120, deadline=None)
def test_corrupted_frame_never_crashes(message, data):
    encoded = bytearray(encode(message))
    position = data.draw(
        st.integers(min_value=0, max_value=len(encoded) - 1))
    flip = data.draw(st.integers(min_value=1, max_value=255))
    encoded[position] ^= flip
    try:
        decode_payload(bytes(encoded))
    except WireFormatError:
        pass  # the expected rejection path


@given(st.binary(max_size=200))
@settings(max_examples=200, deadline=None)
def test_arbitrary_bytes_never_crash(data):
    try:
        decode_payload(data)
    except WireFormatError:
        pass


def test_trailing_garbage_rejected():
    frame = encode(SynSegment("c1", 7))
    with pytest.raises(WireFormatError):
        decode_payload(frame + b"\x00")


def test_nested_batch_rejected():
    inner = encode_batch([encode(AckSegment("c1", 3))])
    with pytest.raises(WireFormatError):
        decode_payload(encode_frame(KIND_BATCH, inner))


def test_unknown_kind_rejected():
    with pytest.raises(WireFormatError):
        decode_payload(encode_frame(0x7F, b""))


@pytest.mark.parametrize("kind", [0x17, 0x18, 0x31],
                         ids=["eager", "order-stub", "state-image"])
def test_retired_totem_kinds_are_counted_drops_not_reused(kind):
    """0x17/0x18 carried the deleted eager-dissemination frames and 0x31
    the deleted logged update image.  The numbers stay unassigned, so a
    datagram from an old sender is an unknown kind: one
    ``totem.wire.error``, nothing dispatched."""
    from repro.totem import TotemCluster

    assert kind not in registered_kinds()
    cluster = TotemCluster(["n1", "n2"]).start()
    cluster.run_until_stable(timeout=2.0)
    ring = cluster.processors["n1"].ring
    body = encode(RingBeacon(ring, "n2"))[HEADER_BYTES:]
    errors = cluster.runtime.trace.count("totem.wire.error")
    cluster.net.send("n2", "n1", "totem", encode_frame(kind, body))
    cluster.sim.run_for(0.01)
    assert cluster.runtime.trace.count("totem.wire.error") == errors + 1
    cluster.processors["n2"].send("still ordering")
    cluster.sim.run_for(0.1)
    assert [d.payload for d in cluster.deliveries["n1"]
            if d.payload == "still ordering"] == ["still ordering"]


def test_bad_magic_and_version_rejected():
    frame = bytearray(encode(AckSegment("c1", 3)))
    bad_magic = bytes(frame)
    with pytest.raises(WireFormatError):
        decode_payload(b"XX" + bad_magic[2:])
    with pytest.raises(WireFormatError):
        decode_payload(bad_magic[:2] + b"\x63" + bad_magic[3:])


def test_empty_payload_rejected():
    with pytest.raises(WireFormatError):
        decode_payload(b"")


def test_header_size_constant():
    frame = encode(AckSegment("c", 0))
    assert frame[:2] == b"RW"
    assert len(frame) >= HEADER_BYTES


# ----------------------------------------------------------------------
# Ring id (version 2 header field)
# ----------------------------------------------------------------------

@given(any_message, st.integers(min_value=0, max_value=MAX_RING))
@settings(max_examples=60, deadline=None)
def test_ring_id_rides_the_header(message, ring):
    frame = encode(message, ring=ring)
    assert peek_ring(frame) == ring
    assert_equal_fields(decode_one(frame), message)


def test_default_ring_is_zero():
    assert peek_ring(encode(AckSegment("c1", 3))) == 0


def test_batch_carries_ring_id():
    frames = [encode(AckSegment("c1", n), ring=9) for n in range(3)]
    data = encode_batch(frames, ring=9)
    assert peek_ring(data) == 9
    assert len(decode_payload(data)) == 3


def test_ring_out_of_range_rejected():
    with pytest.raises(WireFormatError):
        encode_frame(KIND_BATCH, b"", ring=MAX_RING + 1)
    with pytest.raises(WireFormatError):
        encode_frame(KIND_BATCH, b"", ring=-1)


def test_peek_ring_rejects_malformed_header():
    frame = encode(AckSegment("c1", 3), ring=4)
    with pytest.raises(WireFormatError):
        peek_ring(frame[: HEADER_BYTES - 1])
    with pytest.raises(WireFormatError):
        peek_ring(b"XX" + frame[2:])


@pytest.mark.parametrize("rings", [None, 2], ids=["single-ring", "ring-mux"])
def test_totem_port_counts_and_drops_what_is_not_a_frame(rings):
    """A raw Python object or a foreign-magic datagram on the Totem port
    is a counted drop on the direct binding and behind the RingMux alike:
    nothing escapes, nothing is dispatched, the ring keeps ordering."""
    from repro.core import EternalSystem
    from repro.replication import GroupPolicy, ReplicationStyle
    from repro.workloads import Counter

    system = EternalSystem(["n1", "n2", "n3", "c"], seed=7, rings=rings).start()
    system.stabilize()
    ior = system.create_replicated(
        "g", Counter, ["n1", "n2", "n3"],
        GroupPolicy(style=ReplicationStyle.ACTIVE))
    system.run_for(0.5)
    stub = system.stub("c", ior)
    assert system.call(stub.increment(), timeout=30.0) == 1

    ring = system.node("n1").processor.ring
    frame = encode(Token(ring, token_id=10 ** 6), ring=0)
    errors = system.sim.trace.count("totem.wire.error")
    for hostile in (Token(ring, token_id=10 ** 6), ("token", 1), None,
                    b"XX" + frame[2:], b""):
        system.net.send("c", "n1", "totem", hostile)
        system.run_for(0.01)
        errors += 1
        assert system.sim.trace.count("totem.wire.error") == errors

    assert system.call(stub.increment(), timeout=30.0) == 2
    assert set(system.states_of("g").values()) == {2}
