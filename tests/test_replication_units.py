"""Unit tests for replication building blocks: identifiers, tables, styles,
election, and partition decision logic."""

import pytest

from repro.replication import (
    ExecutionContext,
    GroupPolicy,
    InvocationId,
    OperationIdAllocator,
    OperationTable,
    ReplicationStyle,
    choose_primary,
    fulfillment_operation_id,
    nested_operation_id,
    top_level_operation_id,
)
from repro.replication.reconciliation import (
    derive_side_representative,
    divergent_operations,
    should_adopt_capture,
)


# ----------------------------------------------------------------------
# Identifiers
# ----------------------------------------------------------------------

def test_top_level_ids_unique_and_deterministic():
    alloc_a = OperationIdAllocator("client/x")
    alloc_b = OperationIdAllocator("client/x")
    ids_a = [alloc_a.next_top_level() for _ in range(5)]
    ids_b = [alloc_b.next_top_level() for _ in range(5)]
    assert ids_a == ids_b  # replicated clients derive identical ids
    assert len(set(ids_a)) == 5
    assert alloc_a.issued == 5


def test_ids_differ_across_client_groups():
    a = OperationIdAllocator("client/x").next_top_level()
    b = OperationIdAllocator("client/y").next_top_level()
    assert a != b


def test_nested_ids_chain_from_parents():
    parent = top_level_operation_id("g", 1)
    ctx = ExecutionContext(parent, "server-group")
    first = ctx.next_nested_id()
    second = ctx.next_nested_id()
    assert first == nested_operation_id(parent, 1)
    assert second == nested_operation_id(parent, 2)
    assert first != second
    # A nested op of a nested op is distinct from its ancestors.
    grandchild = ExecutionContext(first, "x").next_nested_id()
    assert grandchild not in (parent, first, second)


def test_fulfillment_ids_distinct_from_originals():
    original = top_level_operation_id("g", 3)
    fulfillment = fulfillment_operation_id(original, 0)
    assert fulfillment != original
    assert fulfillment[0] == "f"


def test_invocation_id_round_trip():
    inv = InvocationId(top_level_operation_id("g", 1), "n1", attempt=2)
    restored = InvocationId.from_value(inv.as_value())
    assert restored == inv
    assert hash(restored) == hash(inv)


# ----------------------------------------------------------------------
# The operation table: live tier, evidence, retired tier
# ----------------------------------------------------------------------

def _completed(table, op, order_key, request=b"req", reply=b"reply"):
    table.note_executing(op, request, "cg", False, order_key)
    table.note_completed(op, reply)
    return table.live[op]


def test_operation_table_lifecycle():
    table = OperationTable()
    op = top_level_operation_id("cg", 1)
    assert table.status(op) is None
    record = table.note_executing(op, b"req", "cg", False, (4, 1))
    assert table.status(op) == "executing"
    assert table.pending_in_order() == [record]
    table.note_completed(op, b"reply-bytes")
    assert table.status(op) == "completed"
    assert table.cached_reply(op) == b"reply-bytes"
    assert table.pending_in_order() == []
    assert table.completed_in_order() == [(op, b"req", "cg")]


def test_operation_table_reply_side():
    table = OperationTable()
    op = top_level_operation_id("cg", 2)
    table.note_executing(op, b"req", "cg", False, (4, 1))
    assert not table.reply_already_seen(op)
    table.note_reply_seen(op)
    assert table.reply_already_seen(op)
    table.note_suppressed_reply()
    table.note_suppressed_request()
    assert table.suppressed_replies == 1
    assert table.suppressed_requests == 1


@pytest.mark.parametrize("ack_first", [True, False])
def test_retirement_needs_both_pieces_of_evidence(ack_first):
    table = OperationTable()
    op = top_level_operation_id("cg", 1)
    record = _completed(table, op, (4, 7))
    steps = [lambda: table.acknowledge(op), lambda: table.release_stable((4, 7))]
    first, second = steps if ack_first else reversed(steps)
    first()
    # One piece of evidence releases one payload; the record stays live.
    assert table.live[op] is record
    assert (record.reply_bytes is None) == ack_first
    assert (record.request_bytes is None) == (not ack_first)
    second()
    assert op not in table.live and not table.journal
    assert table.retired.ranges["cg"].ranges() == [(1, 1)]
    # Both tiers answer: a late duplicate is still a duplicate.
    assert table.status(op) == "completed"
    assert table.cached_reply(op) is None
    assert table.reply_already_seen(op)


def test_release_stable_stops_at_the_unstable_tail():
    table = OperationTable()
    ops = [top_level_operation_id("cg", n) for n in (1, 2, 3)]
    for n, op in enumerate(ops, start=1):
        _completed(table, op, (4, n))
    table.release_stable((4, 2))
    assert [r.operation_id for r in table.journal] == [ops[2]]
    # An older ring's deliveries order before anything in a newer ring.
    table.release_stable((8, 0))
    assert not table.journal
    assert list(table.live) == ops   # none acknowledged: none retired


def test_ack_before_completion_never_stores_the_reply():
    """A slow active replica can see the ack (another replica answered)
    before it finishes executing."""
    table = OperationTable()
    op = top_level_operation_id("cg", 1)
    table.note_executing(op, b"req", "cg", False, (4, 1))
    table.acknowledge(op)
    assert table.status(op) == "executing"
    table.note_completed(op, b"reply")
    assert table.cached_reply(op) is None
    table.release_stable((4, 1))
    assert op in table.retired


def test_fulfillment_and_unsequenced_ids_retire_exactly():
    table = OperationTable()
    original = top_level_operation_id("cg", 9)
    fulfillment = fulfillment_operation_id(original, 0)
    nested = nested_operation_id(original, 1)
    _completed(table, fulfillment, (4, 1))   # nobody awaits its reply
    _completed(table, nested, (4, 2))
    table.release_stable((4, 2))
    assert fulfillment in table.retired.exact
    assert table.cached_reply(fulfillment) is None
    # Nested ids are never acknowledged by the engine: the record stays.
    assert table.live[nested].reply_bytes == b"reply"


def test_capture_round_trip_keeps_both_tiers():
    table = OperationTable()
    done = top_level_operation_id("cg", 1)
    kept = top_level_operation_id("cg", 2)
    running = nested_operation_id(kept, 1)
    _completed(table, done, (4, 1))
    table.acknowledge(done)
    table.release_stable((4, 1))
    _completed(table, kept, (4, 2), reply=b"r2")
    table.note_reply_seen(kept)
    table.note_executing(running, b"req", "cg", False, (4, 3))
    # The snapshot must survive CDR marshaling (it travels in captures).
    from repro.orb.cdr import decode_value, encode_value

    snapshot = decode_value(encode_value(table.capture()))
    restored = OperationTable.restore(snapshot)
    assert restored.status(done) == "completed"
    assert restored.status(kept) == "completed"
    assert restored.cached_reply(kept) == b"r2"
    assert restored.reply_already_seen(kept)
    # Executions in flight at the sponsor are not adopted.
    assert restored.status(running) is None
    their = OperationTable.completed_in(snapshot)
    assert done in their and kept in their and running not in their


def test_adoption_prunes_covered_pending_and_keeps_own_bytes():
    sponsor = OperationTable()
    covered = top_level_operation_id("cg", 1)
    retired = top_level_operation_id("cg", 2)
    _completed(sponsor, retired, (4, 1))
    sponsor.acknowledge(retired)
    sponsor.release_stable((4, 1))
    _completed(sponsor, covered, (4, 2))
    mine = OperationTable()
    uncovered = top_level_operation_id("cg", 3)
    for op in (retired, covered, uncovered):
        mine.note_executing(op, b"mine-%d" % op[2], "cg", False, (4, op[2]))
    mine.live[uncovered].running = True
    adopted = OperationTable.restore(sponsor.capture(), previous=mine)
    # Locally pending ops the capture completed (in either tier) are gone
    # from the work list; the uncovered one stays, no longer running.
    assert [r.operation_id for r in adopted.pending_in_order()] == [uncovered]
    assert not adopted.live[uncovered].running
    assert adopted.status(retired) == adopted.status(covered) == "completed"
    # Our own request bytes for a captured completion stay replayable.
    assert adopted.completed_in_order() == [(covered, b"mine-1", "cg")]
    adopted.release_stable((4, 1))
    assert adopted.completed_in_order() == []


# ----------------------------------------------------------------------
# Styles and election
# ----------------------------------------------------------------------

def test_replication_style_validation():
    with pytest.raises(ValueError):
        ReplicationStyle.validate("tripled")
    assert ReplicationStyle.executes_everywhere(ReplicationStyle.ACTIVE)
    assert ReplicationStyle.executes_everywhere(ReplicationStyle.SEMI_ACTIVE)
    assert not ReplicationStyle.executes_everywhere(ReplicationStyle.WARM_PASSIVE)
    assert ReplicationStyle.is_passive(ReplicationStyle.COLD_PASSIVE)
    assert not ReplicationStyle.is_passive(ReplicationStyle.ACTIVE)


def test_group_policy_validation_and_copy():
    with pytest.raises(ValueError):
        GroupPolicy(state_transfer="osmosis")
    with pytest.raises(ValueError):
        GroupPolicy(dispatch_policy="fibers")
    policy = GroupPolicy(style=ReplicationStyle.ACTIVE, min_replicas=5)
    clone = policy.copy(style=ReplicationStyle.WARM_PASSIVE)
    assert clone.style == ReplicationStyle.WARM_PASSIVE
    assert clone.min_replicas == 5
    assert policy.style == ReplicationStyle.ACTIVE


@pytest.mark.parametrize("field, value", [
    ("update_mode", "diff"),
    ("state_transfer", "osmosis"),
    ("dispatch_policy", "x"),
    ("read_lease_duration", -1),
])
def test_group_policy_copy_validates_like_the_constructor(field, value):
    """A copy is how a policy change is checked before it is multicast
    (``send_policy_update``) and applied at every replica."""
    with pytest.raises(ValueError):
        GroupPolicy(**{field: value})
    with pytest.raises(ValueError):
        GroupPolicy().copy(**{field: value})


def test_primary_election():
    assert choose_primary(["n3", "n1", "n2"]) == "n1"
    assert choose_primary([]) is None


# ----------------------------------------------------------------------
# Partition decision logic
# ----------------------------------------------------------------------

def test_state_sponsor_must_survive():
    """After a ring change the sponsor (the side representative) is the
    least member that moved with us *and* holds state.  Here n1 joined
    and its sponsor n2 crashed before n1's capture was delivered: n1 is
    neither the representative nor counted as sharing our history, so
    the next view sponsors it again."""
    from repro.core import EternalSystem
    from repro.totem.events import TransitionalConfiguration
    from repro.workloads import Counter

    system = EternalSystem(["n1", "n2", "n3", "n4"]).start()
    system.stabilize()
    system.create_replicated("ctr", Counter, ["n2", "n3", "n4"],
                             GroupPolicy(style=ReplicationStyle.ACTIVE))
    system.run_for(0.5)
    engine = system.engine("n3")
    replica = engine.replica("ctr")
    replica.members = ("n1", "n2", "n3", "n4")
    replica.unserved = {"n1"}
    engine._on_ring_config(engine._ring_of("ctr"), TransitionalConfiguration(
        (4, ()), (8, ("n1", "n3", "n4")), ["n1", "n3", "n4"]))
    assert replica.side_rep == "n3"
    assert replica.pre_change_members == {"n3", "n4"}


def test_side_representative_from_transitional():
    assert derive_side_representative(
        ["n1", "n2", "n3", "n4"], ["n3", "n4"], "n4"
    ) == "n3"
    # A replica alone in its component is its own representative.
    assert derive_side_representative(["n1", "n2"], [], "n2") == "n2"


def test_adopt_decision():
    assert should_adopt_capture("n1", "n3", "n4") is True
    assert should_adopt_capture("n3", "n3", "n4") is False
    assert should_adopt_capture("n5", "n3", "n4") is False
    assert should_adopt_capture("n4", "n3", "n4") is False  # own capture
    assert should_adopt_capture("n1", None, "n4") is True


def test_divergent_operations_diff():
    op1 = top_level_operation_id("g", 1)
    op2 = top_level_operation_id("g", 2)
    op3 = fulfillment_operation_id(op1, 0)
    journal = [(op1, b"req1", "cg"), (op2, b"req2", "cg"), (op3, b"req3", "cg")]
    their_completed = {op1}
    divergent = divergent_operations(journal, their_completed)
    # op1 is known to them; op3 is a fulfillment op; only op2 replays.
    assert divergent == [(op2, b"req2", "cg")]


def test_divergent_operations_against_compressed_history():
    """``their_completed`` is the capture's two tiers, not a set."""
    theirs = OperationTable()
    for n in range(1, 6):
        op = top_level_operation_id("g", n)
        _completed(theirs, op, (4, n))
        theirs.acknowledge(op)
    theirs.release_stable((4, 4))   # 1..4 retired, 5 live
    journal = [(top_level_operation_id("g", n), b"r%d" % n, "cg")
               for n in (3, 5, 6, 7)]
    divergent = divergent_operations(
        journal, OperationTable.completed_in(theirs.capture()))
    assert [op[2] for op, _bytes, _group in divergent] == [6, 7]


def test_divergent_operations_skips_unjournaled():
    op = top_level_operation_id("g", 1)
    assert divergent_operations([], set()) == []
    assert divergent_operations([(op, None, None)], set()) == []
