"""Property-based tests (hypothesis) for core invariants."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.orb.cdr import decode_value, encode_value
from repro.replication import OperationIdAllocator, OperationTable
from repro.replication.duplicates import IntervalSet, RetiredOperations
from repro.state import IncrementalAssembler, IncrementalTransfer
from repro.totem import TotemCluster

# ----------------------------------------------------------------------
# CDR round-trip over arbitrary marshalable values
# ----------------------------------------------------------------------

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2 ** 127), max_value=2 ** 127),
    st.floats(allow_nan=False),
    st.text(max_size=40),
    st.binary(max_size=40),
)

values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(st.text(max_size=10), children, max_size=5),
    ),
    max_leaves=25,
)


@given(values)
@settings(max_examples=200)
def test_cdr_round_trip_property(value):
    assert decode_value(encode_value(value)) == value


@given(values, values)
@settings(max_examples=100)
def test_cdr_encoding_is_deterministic(a, b):
    assert encode_value(a) == encode_value(a)
    if encode_value(a) == encode_value(b):
        assert a == b  # encoding is injective on marshalable values


# ----------------------------------------------------------------------
# Totem: total order under arbitrary interleaved send schedules
# ----------------------------------------------------------------------

send_schedules = st.lists(
    st.tuples(st.sampled_from(["n1", "n2", "n3"]), st.integers(0, 999)),
    min_size=1,
    max_size=25,
)


@given(send_schedules)
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_totem_total_order_property(schedule):
    cluster = TotemCluster(["n1", "n2", "n3"]).start()
    cluster.run_until_stable(timeout=2.0)
    for sender, payload in schedule:
        cluster.processors[sender].send((sender, payload))
    cluster.sim.run_for(2.0)
    sequences = {
        node: [
            d.payload for d in cluster.deliveries[node]
            if not (isinstance(d.payload, tuple) and d.payload
                    and d.payload[0] == "announce")
        ]
        for node in ("n1", "n2", "n3")
    }
    assert sequences["n1"] == sequences["n2"] == sequences["n3"]
    assert len(sequences["n1"]) == len(schedule)
    # Per-sender FIFO: each sender's messages appear in send order.
    for sender in ("n1", "n2", "n3"):
        sent = [(s, p) for s, p in schedule if s == sender]
        delivered = [m for m in sequences["n1"] if m[0] == sender]
        assert delivered == sent


# ----------------------------------------------------------------------
# Duplicate tables: capture/restore is lossless
# ----------------------------------------------------------------------

op_ids = st.tuples(
    st.sampled_from(["c", "n", "f"]),
    st.text(min_size=1, max_size=8),
    st.integers(0, 1000),
)


@given(
    st.lists(st.tuples(op_ids, st.sampled_from(["executing", "completed"])),
             max_size=20, unique_by=lambda pair: pair[0]),
    st.lists(op_ids, max_size=10),
)
@settings(max_examples=100)
def test_operation_table_round_trip_property(statuses, replies_seen):
    table = OperationTable()
    for op, status in statuses:
        table.note_executing(op, b"q", "cg", False, (4, 1))
        if status == "completed":
            table.note_completed(op, b"r")
    for op in replies_seen:
        table.note_reply_seen(op)
    snapshot = decode_value(encode_value(table.capture()))
    restored = OperationTable.restore(snapshot)
    for op, status in statuses:
        # Only completions are adopted; in-flight work stays the sponsor's.
        expected = "completed" if status == "completed" else None
        assert restored.status(op) == expected
        if expected:
            assert restored.cached_reply(op) == table.cached_reply(op)
        if op in restored.live:   # else retired on adoption: acked, no bytes
            assert (restored.reply_already_seen(op)
                    == table.reply_already_seen(op))


# ----------------------------------------------------------------------
# Interval set / retired tier: a plain set is the model
# ----------------------------------------------------------------------

@given(st.lists(st.integers(0, 60)), st.lists(st.integers(0, 60)))
@settings(max_examples=200)
def test_interval_set_matches_plain_set(left, right):
    model = set()
    intervals = IntervalSet()
    for number in left:
        intervals.add(number)
        model.add(number)
        assert all((n in intervals) == (n in model) for n in range(-1, 62))
    ranges = intervals.ranges()
    assert all(lo <= hi for lo, hi in ranges)
    # Disjoint, sorted and non-adjacent: the representation is canonical.
    assert all(a[1] + 1 < b[0] for a, b in zip(ranges, ranges[1:]))
    restored = IntervalSet(decode_value(encode_value(intervals.as_value())))
    assert restored.ranges() == ranges
    # Merging another side's ranges is set union.
    other = IntervalSet()
    for number in right:
        other.add(number)
    for lo, hi in other.ranges():
        intervals.add_range(lo, hi)
    model |= set(right)
    assert {n for n in range(-1, 62) if n in intervals} == model


@given(st.lists(op_ids, max_size=30))
@settings(max_examples=100)
def test_retired_operations_lossless_property(ops):
    retired = RetiredOperations()
    for op in ops:
        retired.add(op)
    restored = RetiredOperations.from_value(
        decode_value(encode_value(retired.as_value())))
    for op in ops:
        assert op in retired and op in restored
    # Lossless: nothing that was not added is reported.
    for kind, group, number in ops:
        assert ((kind, group, number + 1) in restored) == (
            (kind, group, number + 1) in set(ops))


# ----------------------------------------------------------------------
# Operation id allocation: unique and replica-deterministic
# ----------------------------------------------------------------------

@given(st.integers(1, 200), st.text(min_size=1, max_size=10))
@settings(max_examples=50)
def test_operation_ids_unique_property(count, group):
    alloc = OperationIdAllocator(group)
    ids = [alloc.next_top_level() for _ in range(count)]
    assert len(set(ids)) == count


# ----------------------------------------------------------------------
# Incremental transfer: any chunk size reassembles exactly
# ----------------------------------------------------------------------

@given(
    st.dictionaries(st.text(min_size=1, max_size=8),
                    st.text(max_size=64), max_size=30),
    st.integers(1, 4096),
)
@settings(max_examples=100)
def test_incremental_transfer_reassembly_property(state, chunk_size):
    transfer = IncrementalTransfer(state, chunk_size=chunk_size)
    assembler = IncrementalAssembler()
    for chunk in transfer.chunks():
        assembler.add_chunk(*chunk)
    assert assembler.complete()
    assert assembler.assemble() == state
