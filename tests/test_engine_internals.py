"""White-box tests of replication-engine mechanisms."""

from repro.core import EternalSystem
from repro.orb import RequestMessage, decode_message
from repro.replication import GroupPolicy, ReplicationStyle
from repro.workloads import Counter


def system_up(nodes=("n1", "n2", "n3"), seed=0):
    system = EternalSystem(list(nodes), seed=seed).start()
    system.stabilize()
    return system


def test_request_retry_recovers_a_dropped_send():
    """If the initial request multicast is swallowed, the retry (same
    operation id) must complete the invocation exactly once."""
    system = system_up()
    ior = system.create_replicated(
        "ctr", Counter, ["n1", "n2"], GroupPolicy(style=ReplicationStyle.ACTIVE)
    )
    system.run_for(0.5)
    engine = system.engine("n3")
    engine.request_retry_timeout = 0.2
    real_send = engine.groups.send
    dropped = {"count": 0}

    def lossy_send(groups, payload, size=64, guarantee="agreed", **kwargs):
        if payload[0] == "ft-request" and dropped["count"] == 0:
            dropped["count"] += 1
            dropped["payload"] = payload
            return  # swallow the first request silently
        real_send(groups, payload, size=size, guarantee=guarantee, **kwargs)

    engine.groups.send = lossy_send
    stub = system.stub("n3", ior)
    result = system.call(stub.increment(5), timeout=30.0)
    assert result == 5
    assert dropped["count"] == 1
    # The diverted stream is genuine GIOP: the envelope carries the bytes
    # the ORB encoded for the wire, its own Request message.
    request = decode_message(dropped["payload"][4])
    assert isinstance(request, RequestMessage)
    assert request.operation == "increment"
    assert system.sim.trace.count("ft.request.retry") >= 1
    # Exactly-once despite the retry machinery.
    assert set(system.states_of("ctr").values()) == {5}


def test_duplicate_request_gets_cached_reply_resent():
    system = system_up()
    ior = system.create_replicated(
        "ctr", Counter, ["n1", "n2"], GroupPolicy(style=ReplicationStyle.ACTIVE)
    )
    system.run_for(0.5)
    stub = system.stub("n3", ior)
    system.call(stub.increment(1))
    # Re-deliver the same logical request (as a failover reinvocation
    # would): find the completed op and re-inject it.
    engine = system.engine("n1")
    replica = engine.replica("ctr")
    # The invoker has not acknowledged it yet (it made no further request),
    # so the record is live and still holds the reply.
    record = next(iter(replica.table.live.values()))
    assert record.status == "completed" and record.reply_bytes is not None
    op_id, client_group = record.operation_id, record.client_group
    request_bytes = b"the table never re-reads a completed op's request"
    before_replies = system.sim.trace.count("ft.reply.sent")
    before_ops = replica.ops_applied
    engine._process_request(replica, op_id, request_bytes, client_group,
                            False, (0, 0))
    system.run_for(0.5)
    # Not re-executed; the cached reply was re-transmitted by the primary.
    assert replica.ops_applied == before_ops
    assert system.sim.trace.count("ft.reply.sent") == before_replies + 1
    assert replica.table.suppressed_requests >= 1


def test_fulfilled_original_keeps_its_bytes_until_the_fulfillment_is_stable():
    """The fulfillment op is never replayed again, so the paired original
    record is the only replayable copy: it waits for the same evidence."""
    from repro.replication import fulfillment_operation_id

    system = system_up()
    system.create_replicated(
        "ctr", Counter, ["n1", "n2"], GroupPolicy(style=ReplicationStyle.ACTIVE)
    )
    system.run_for(0.5)
    replica = system.engine("n1").replica("ctr")
    original = ("c", "client/n3", 7)
    fulfillment = fulfillment_operation_id(original, 0)
    ring_seq, safe = replica.engine.groups.stable_horizon()[1]
    delivered_at = (ring_seq, safe + 1000)        # not safe yet
    table = replica.table
    table.note_executing(fulfillment, b"req", "client/n3", True, delivered_at)
    replica.complete(fulfillment, b"req", "client/n3", b"reply")
    assert table.live[original].order_key == delivered_at
    assert [r.operation_id for r in table.journal] == [fulfillment, original]
    table.release_stable(delivered_at)
    assert not table.journal and table.live[original].request_bytes is None


def test_requests_under_a_foreign_client_group_owe_no_ack():
    """The gateway tier's fallback sends this node's own ("c", client/n3, n)
    ids under the tier's client group: the server reads ack numbers against
    the envelope's group, so nothing may be recorded for them."""
    system = system_up()
    ior = system.create_replicated(
        "ctr", Counter, ["n1", "n2"], GroupPolicy(style=ReplicationStyle.ACTIVE)
    )
    system.run_for(0.5)
    engine = system.engine("n3")
    engine.join_client_group("tier")
    system.run_for(0.2)
    for _ in range(3):
        future = engine.invoke_group(ior, "increment", (1,),
                                     client_group="tier")
        assert isinstance(system.call(future), int)
    assert engine._resolved == {} and engine.pending == {}
    sent = []
    real_send = engine.groups.send
    engine.groups.send = lambda groups, payload, **kw: (
        sent.append(payload), real_send(groups, payload, **kw))
    system.call(system.stub("n3", ior).increment(1))
    assert sent[0][6] == ()       # own id: nothing owed from the tier's ops
    assert set(system.states_of("ctr").values()) == {4}


def _merging(system, node, transitional, new_seq, new_members):
    """Deliver a transitional configuration to ``node``'s engine by hand."""
    from repro.totem.events import TransitionalConfiguration

    engine = system.engine(node)
    engine._on_ring_config(engine._ring_of("ctr"), TransitionalConfiguration(
        (new_seq - 4, ()), (new_seq, tuple(new_members)), transitional))
    return engine.replica("ctr")


def _three_way_counter():
    system = system_up()
    system.create_replicated(
        "ctr", Counter, ["n1", "n2", "n3"],
        GroupPolicy(style=ReplicationStyle.ACTIVE))
    system.run_for(0.5)
    return system


def test_owed_reconciliation_freezes_the_representative_only_while_it_travels_along():
    """A replica released from a merge stall by timeout keeps its pre-merge
    representative (a late capture must still bind) -- but not once the
    churn separates it from that host: claiming primacy through an absent
    representative would refuse that host's capture at the next merge."""
    system = _three_way_counter()
    engine = system.engine("n3")
    replica = _merging(system, "n3", ("n1", "n3"), 96, ("n1", "n2", "n3"))
    engine._release_merge_stall(replica, "timeout")
    assert replica.side_rep == "n1" and replica.merge.outside == {"n2"}
    _merging(system, "n3", ("n1", "n3"), 100, ("n1", "n3"))
    assert replica.side_rep == "n1"
    _merging(system, "n3", ("n3",), 104, ("n3",))
    assert replica.side_rep == "n3"


def test_view_members_that_did_not_travel_along_need_a_capture():
    """n1's view still lists n2 and n3, but only n1 came out of the old
    ring: they are joiners to sponsor, not pre-change members."""
    system = _three_way_counter()
    replica = _merging(system, "n1", ("n1",), 100, ("n1", "n2", "n3"))
    assert set(replica.members) == {"n1", "n2", "n3"}
    assert replica.pre_change_members == {"n1"}
    assert replica.merge.stalled


def test_premerge_stalled_requests_go_back_into_the_total_order():
    """A request the secondary side buffered before the merge was delivered
    in its component only: replayed from the buffer it would run there
    alone.  On adopting the primary side's capture it is re-multicast
    (same id) so every host replays it at one position."""
    system = _three_way_counter()
    engine = system.engine("n3")
    replica = _merging(system, "n3", ("n3",), 200, ("n1", "n2", "n3"))
    assert replica.side_rep == "n3" and replica.merge.stalled
    before = ("ft-request", "ctr", "client/n1", ("c", "client/n1", 8),
              b"before", False, ())
    after = ("ft-request", "ctr", "client/n1", ("c", "client/n1", 9),
             b"after", False, ())
    replica.buffered = [(before, (196, 3)), (after, (200, 1))]
    sent = []
    engine.groups.send = lambda groups, payload, **kw: sent.append(payload)
    sponsor = system.engine("n1")
    engine._consider_capture(
        replica, sponsor._capture(sponsor.replica("ctr")), "n1")
    assert replica.buffered == [(after, (200, 1))]
    assert [p[0] for p in sent] == ["ft-request", "ft-reconciled"]
    assert sent[0] == before


def _deliver(engine, payload, order_key, sender="n1"):
    """Hand ``engine`` one totally-ordered delivery, as its ring would."""
    from repro.totem.process_groups import GroupMessage

    engine._on_group_message(
        GroupMessage(sender, (payload[1],), payload, 64, order_key, False))


def _record_handlers(engine, names):
    """Wrap the engine's delivery handlers; returns the (kind, order key)
    list every call through them appends to."""
    seen = []
    for name in names:
        handler = getattr(engine, name)
        setattr(engine, name, lambda replica, payload, order_key, _h=handler: (
            seen.append((payload[0], order_key)),
            _h(replica, payload, order_key)))
    return seen


def test_a_joining_replica_replays_its_buffer_through_the_live_handlers():
    """Each bufferable kind waits at a not-ready replica; once it is ready
    the buffer goes, in delivery order, through the handlers a live
    delivery takes."""
    from repro.workloads import KeyValueStore

    system = system_up()
    policy = GroupPolicy(style=ReplicationStyle.WARM_PASSIVE,
                         update_mode="image")
    system.create_replicated("kv", KeyValueStore, ["n1", "n2"], policy)
    system.run_for(0.5)
    sponsor = system.engine("n1")
    checkpoint = sponsor._capture(sponsor.replica("kv")).as_value()
    engine = system.engine("n3")
    engine.host_replica("kv", KeyValueStore(), policy, ready=False)
    replica = engine.replica("kv")
    first, second = ("c", "client/n9", 1), ("c", "client/n9", 2)
    deliveries = [
        ("ft-request", "kv", "client/n9", first, b"put", False, ()),
        ("ft-state-update", "kv", first, 1, {"k": "a"}, None, "client/n9"),
        ("ft-state-update-image", "kv", second, 2, ("set", "k", "b"), None,
         "client/n9"),
        ("ft-checkpoint", "kv", checkpoint),
        ("ft-policy", "kv", {"read_lease_margin": 0.1}),
    ]
    buffered = [(payload, (50, seq))
                for seq, payload in enumerate(deliveries, start=1)]
    for payload, order_key in buffered:
        _deliver(engine, payload, order_key)
    assert replica.buffered == buffered
    assert replica.ops_applied == 0 and replica.servant.data == {}
    seen = _record_handlers(engine, ["_deliver_request", "_deliver_state_update",
                                     "_deliver_checkpoint", "_apply_policy"])
    engine._make_ready(replica)
    assert seen == [(payload[0], order_key) for payload, order_key in buffered]
    assert replica.buffered == []
    # Each applied: the updates in turn, then the (empty) checkpoint
    # state over them, then the policy change.
    assert system.sim.trace.count("ft.state.update.applied") == 1
    assert system.sim.trace.count("ft.state.update.image.applied") == 1
    assert replica.servant.data == {} and replica.ops_since_checkpoint == 0
    assert replica.policy.read_lease_margin == 0.1
    # Ready now: the same kinds apply at once.
    _deliver(engine, ("ft-policy", "kv", {"checkpoint_interval_ops": 9}),
             (50, 6))
    assert seen[-1] == ("ft-policy", (50, 6)) and replica.buffered == []
    assert replica.policy.checkpoint_interval_ops == 9


def test_while_merge_stalled_only_fulfillments_pass_the_gate():
    from repro.replication import fulfillment_operation_id

    system = system_up()
    system.create_replicated(
        "ctr", Counter, ["n1", "n2", "n3"],
        GroupPolicy(style=ReplicationStyle.WARM_PASSIVE))
    system.run_for(0.5)
    engine = system.engine("n3")
    replica = _merging(system, "n3", ("n3",), 200, ("n1", "n2", "n3"))
    assert replica.merge.stalled
    fulfillment = fulfillment_operation_id(("c", "client/n9", 4), 0)
    ordinary = ("ft-request", "ctr", "client/n9", ("c", "client/n9", 5),
                b"req", False, ())
    policy = ("ft-policy", "ctr", {"checkpoint_interval_ops": 7})
    fulfilling = ("ft-request", "ctr", "client/n9", fulfillment, b"req",
                  True, ())
    for seq, payload in enumerate((ordinary, policy, fulfilling), start=1):
        _deliver(engine, payload, (200, seq))
    assert replica.buffered == [(ordinary, (200, 1)), (policy, (200, 2))]
    assert replica.table.status(fulfillment) == "executing"
    assert replica.table.status(ordinary[3]) is None
    assert replica.policy.checkpoint_interval_ops == 50
    engine._release_merge_stall(replica, "reconciled")
    assert replica.buffered == []
    assert replica.table.status(ordinary[3]) == "executing"
    assert replica.policy.checkpoint_interval_ops == 7


def _primary_side_stall(style):
    """n1 and n2 stay together; n3 comes back from the other component.
    Returns (system, n1's engine, its replica, the merge round)."""
    system = system_up()
    system.create_replicated(
        "ctr", Counter, ["n1", "n2", "n3"], GroupPolicy(style=style))
    system.run_for(0.5)
    engine = system.engine("n1")
    engine.groups.send = lambda groups, payload, **kw: None
    replica = _merging(system, "n1", ("n1", "n2"), 200, ("n1", "n2", "n3"))
    assert replica.merge.stalled and replica.merge.outside == {"n3"}
    return system, engine, replica, (200, ("n1", "n2", "n3"))


def test_a_pre_merge_state_update_from_the_other_side_is_refused():
    """The other side's update is refused while its sender's marker is
    still to come (its position would look contiguous: both histories
    stand at the same count), applied once the marker is delivered, and
    an update from our own side is never fenced."""
    system, engine, replica, round_key = _primary_side_stall(
        ReplicationStyle.WARM_PASSIVE)
    position = replica.ops_applied + 1

    def update(n, value):
        return ("ft-state-update", "ctr", ("c", "client/n9", n), position,
                value, None, "client/n9")

    _deliver(engine, update(1, 41), (200, 1), sender="n3")
    assert replica.servant.value == 0 and replica.ops_applied == position - 1
    assert system.sim.trace.count("ft.merge.push.refused") == 1
    _deliver(engine, ("ft-reconciled", "ctr", "n3", round_key), (200, 2),
             sender="n3")
    assert replica.merge.stalled and "n3" not in replica.merge.awaiting
    _deliver(engine, update(2, 42), (200, 3), sender="n3")
    assert replica.servant.value == 42 and replica.ops_applied == position
    position += 1
    _deliver(engine, update(3, 43), (200, 4), sender="n2")
    assert replica.servant.value == 43
    assert system.sim.trace.count("ft.merge.push.refused") == 1


def test_a_pre_merge_checkpoint_from_the_other_side_is_refused():
    """A stalled replica would adopt any peer's checkpoint wholesale, with
    no position check at all: the other side's waits for its marker."""
    system, engine, replica, round_key = _primary_side_stall(
        ReplicationStyle.COLD_PASSIVE)
    other = system.engine("n3")
    other.replica("ctr").servant.value = 7
    checkpoint = ("ft-checkpoint", "ctr",
                  other._capture(other.replica("ctr")).as_value())
    _deliver(engine, checkpoint, (200, 1), sender="n3")
    assert replica.servant.value == 0
    assert system.sim.trace.count("ft.checkpoint.applied") == 0
    assert system.sim.trace.count("ft.merge.push.refused") == 1
    _deliver(engine, ("ft-reconciled", "ctr", "n3", round_key), (200, 2),
             sender="n3")
    _deliver(engine, checkpoint, (200, 3), sender="n3")
    assert replica.servant.value == 7
    assert system.sim.trace.count("ft.checkpoint.applied") == 1


def _warm_passive_counter():
    system = system_up()
    system.create_replicated(
        "ctr", Counter, ["n1", "n2", "n3"],
        GroupPolicy(style=ReplicationStyle.WARM_PASSIVE))
    system.run_for(0.5)
    return system


def _gapped(engine, order_key=(9, 1)):
    """Hand ``engine``'s backup an update one position ahead of the next
    contiguous one; returns the list its sends now go to."""
    sent = []
    engine.groups.send = lambda groups, payload, **kw: sent.append(payload)
    position = engine.replica("ctr").ops_applied + 2
    _deliver(engine, ("ft-state-update", "ctr", ("c", "client/n9", 99),
                      position, 5, None, "client/n9"), order_key)
    return sent


def _resync_answer(system, target="n3"):
    primary = system.engine("n1")
    value = primary._capture(primary.replica("ctr")).as_value()
    return ("ft-resync-state", "ctr", value, "n1", target)


def test_a_gapped_update_asks_for_one_resync_per_episode():
    system = _warm_passive_counter()
    engine = system.engine("n3")
    replica = engine.replica("ctr")
    sent = _gapped(engine)
    _gapped(engine, (9, 2))
    _deliver(engine, ("ft-state-update", "ctr", ("c", "client/n9", 1),
                      replica.ops_applied, 5, None, "client/n9"), (9, 3))
    assert sent == [("ft-resync", "ctr", "n3")] and replica.resync_pending
    assert system.sim.trace.count("ft.state.update.stale") == 3
    assert replica.servant.value == 0


def test_a_ring_change_and_a_capture_adoption_each_rearm_the_resync():
    system = _warm_passive_counter()
    engine = system.engine("n3")
    replica = engine.replica("ctr")
    sent = _gapped(engine)
    _merging(system, "n3", ("n1", "n2", "n3"), 200, ("n1", "n2", "n3"))
    assert not replica.resync_pending and not replica.merge
    sent += _gapped(engine, (200, 1))
    sponsor = system.engine("n1")
    engine._adopt_capture(replica, sponsor._capture(sponsor.replica("ctr")))
    assert not replica.resync_pending
    sent += _gapped(engine, (200, 2))
    assert sent == [("ft-resync", "ctr", "n3")] * 3


def test_only_the_ready_primary_answers_a_resync_through_its_dispatcher():
    system = _warm_passive_counter()
    answered = {}
    for node in ("n1", "n2", "n3"):
        engine = system.engine(node)
        replica = engine.replica("ctr")
        jobs, sent = [], []
        replica.dispatcher.submit = jobs.append
        engine.groups.send = lambda groups, payload, _s=sent, **kw: _s.append(
            payload)
        _deliver(engine, ("ft-resync", "ctr", "n3"), (9, 1), sender="n3")
        answered[node] = jobs, sent
    assert answered["n2"] == ([], []) and answered["n3"] == ([], [])
    jobs, sent = answered["n1"]
    assert len(jobs) == 1 and sent == []     # queued behind executions
    jobs[0].run(lambda: None)
    assert [(p[0], p[3], p[4]) for p in sent] == [
        ("ft-resync-state", "n1", "n3")]


def test_only_the_targeted_pending_requester_adopts_a_resync_capture():
    system = _warm_passive_counter()
    system.engine("n1").replica("ctr").servant.value = 9
    n2, n3 = system.engine("n2"), system.engine("n3")
    _gapped(n2)
    _deliver(n2, _resync_answer(system), (9, 2))         # not its target
    _deliver(n3, _resync_answer(system), (9, 2))         # nothing pending
    assert n2.replica("ctr").servant.value == 0
    assert n3.replica("ctr").servant.value == 0
    _gapped(n3, (9, 3))
    _deliver(n3, _resync_answer(system), (9, 4))
    assert n3.replica("ctr").servant.value == 9
    assert not n3.replica("ctr").resync_pending
    assert system.sim.trace.count("ft.resync.adopted") == 1


def test_a_resync_capture_turns_what_only_the_backup_completed_into_fulfillments():
    from repro.replication import fulfillment_operation_id

    system = _warm_passive_counter()
    engine = system.engine("n3")
    replica = engine.replica("ctr")
    sent = _gapped(engine)
    op = ("c", "client/n9", 4)
    ring_seq, safe = engine.groups.stable_horizon()[1]
    replica.table.note_executing(op, b"req", "client/n9", False,
                                 (ring_seq, safe + 1000))   # not stable yet
    replica.complete(op, b"req", "client/n9", b"reply")
    _deliver(engine, _resync_answer(system), (9, 2))
    assert sent[-1] == ("ft-request", "ctr", "client/n9",
                        fulfillment_operation_id(op, 0), b"req", True, ())
    assert system.sim.trace.count("ft.fulfillment.sent") == 1


def test_client_reply_cache_resolves_late_issuer():
    """A replicated client replica that issues its copy of an operation
    after the reply was already delivered resolves instantly from the
    reply cache."""
    system = system_up(("s1", "s2", "c1", "c2"))
    # c1/c2 share a client group.
    for node in ("c1", "c2"):
        engine = system.engine(node)
        engine.client_group = "client/shared"
        from repro.replication.identifiers import OperationIdAllocator

        engine.allocator = OperationIdAllocator("client/shared")
        system.nodes[node].groups.join("client/shared")
    system.run_for(0.3)
    ior = system.create_replicated(
        "ctr", Counter, ["s1", "s2"], GroupPolicy(style=ReplicationStyle.ACTIVE)
    )
    system.run_for(0.5)
    # c1 issues and completes the logical operation first.
    result = system.call(system.stub("c1", ior).increment(1), timeout=30.0)
    assert result == 1
    system.run_for(0.5)
    # c2 now issues its (deterministic duplicate) copy: same op id.
    future = system.stub("c2", ior).increment(1)
    assert future.done(), "late issuer should resolve from the reply cache"
    assert future.result() == 1
    # The object only ever executed the operation once.
    assert set(system.states_of("ctr").values()) == {1}


def test_engine_stats_shape():
    system = system_up()
    system.create_replicated(
        "ctr", Counter, ["n1", "n2"], GroupPolicy(style=ReplicationStyle.ACTIVE)
    )
    system.run_for(0.5)
    stub = system.stub("n1", system.manager.ior_of("ctr"))
    system.call(stub.increment(1))
    stats = system.engine("n1").stats()
    assert "ctr" in stats
    entry = stats["ctr"]
    assert entry["style"] == ReplicationStyle.ACTIVE
    assert entry["ops_applied"] == 1
    assert entry["suppressed_requests"] >= 0
    assert entry["suppressed_replies"] >= 0


def test_unhost_replica_leaves_group():
    system = system_up()
    system.create_replicated(
        "ctr", Counter, ["n1", "n2", "n3"],
        GroupPolicy(style=ReplicationStyle.ACTIVE),
    )
    system.run_for(0.5)
    system.engine("n3").unhost_replica("ctr")
    system.run_for(0.5)
    assert system.nodes["n1"].groups.members_of("ctr") == ("n1", "n2")
    # Still serving with the remaining members.
    stub = system.stub("n3", system.manager.ior_of("ctr"))
    assert system.call(stub.increment(1)) == 1


def test_group_ior_type_id_from_servant():
    system = system_up()
    engine = system.engine("n1")
    ior = engine.group_ior("g", Counter())
    assert ior.type_id == "IDL:Counter:1.0"
    assert engine.group_ior("g").type_id == "IDL:Object:1.0"


def test_non_group_reference_still_uses_direct_path():
    """Interception must leave unreplicated references on plain IIOP."""
    system = system_up()
    plain_ior = system.nodes["n1"].orb.poa.activate(Counter())
    stub = system.stub("n2", plain_ior)
    assert system.call(stub.increment(4)) == 4
    assert system.sim.trace.count("ft.request.sent") == 0
