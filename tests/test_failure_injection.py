"""Adversarial failure injection: crashes at the worst moments.

These tests aim crashes and partitions at the windows where the
mechanisms are most exposed: during state transfer, during failover,
at the sponsor, at the joiner, and under background message loss.
"""

from repro.core import EternalSystem
from repro.replication import GroupPolicy, ReplicationStyle
from repro.simnet import LinkProfile
from repro.workloads import Counter, KeyValueStore


def fresh_system(nodes, seed=0, profile=None):
    system = EternalSystem(list(nodes), seed=seed, profile=profile).start()
    system.stabilize()
    return system


def test_sponsor_crash_during_state_transfer():
    """The state sponsor dies mid-transfer; the joiner must still be
    initialized (by the next surviving sponsor after the view change)."""
    system = fresh_system(["n1", "n2", "n3"])
    ior = system.create_replicated(
        "kv", KeyValueStore, ["n1", "n2"],
        GroupPolicy(style=ReplicationStyle.ACTIVE, state_transfer="incremental"),
    )
    system.run_for(0.5)
    stub = system.stub("n3", ior)
    system.call(stub.preload(400, 128), timeout=120.0)
    captures = system.sim.trace.count("ft.state.full.sent")
    system.manager.add_member("kv", "n3")
    # Kill the sponsor (n1, lowest surviving member) after it sent the
    # capture but before the joiner could adopt it.
    system.run_for(0.004)
    assert system.sim.trace.count("ft.state.full.sent") == captures + 1
    assert not system.engine("n3").replica("kv").ready
    system.crash("n1")
    system.run_for(10.0)
    system.stabilize()
    system.run_for(5.0)
    replica = system.engine("n3").replica("kv")
    assert replica is not None and replica.ready
    assert replica.servant.data == system.engine("n2").replica("kv").servant.data
    # n2 sponsored a second capture after the view change.
    assert system.sim.trace.count("ft.state.full.sent") == captures + 2


def test_joiner_crash_during_state_transfer():
    """The joining replica dies mid-transfer; the group must be unharmed."""
    system = fresh_system(["n1", "n2", "n3"])
    ior = system.create_replicated(
        "kv", KeyValueStore, ["n1", "n2"],
        GroupPolicy(style=ReplicationStyle.ACTIVE),
    )
    system.run_for(0.5)
    stub = system.stub("n1", ior)
    system.call(stub.preload(100, 64), timeout=60.0)
    system.manager.add_member("kv", "n3")
    system.run_for(0.002)
    system.crash("n3")
    system.run_for(5.0)
    system.stabilize()
    assert system.call(stub.put("after", 1)) is True
    states = system.states_of("kv")
    assert states["n1"] == states["n2"]
    assert "after" in states["n1"]


def test_double_crash_during_passive_failover():
    """The primary dies; the promoted backup dies during its catch-up;
    the third replica must finish the job."""
    system = fresh_system(["n1", "n2", "n3", "c"])
    ior = system.create_replicated(
        "ctr", Counter, ["n1", "n2", "n3"],
        GroupPolicy(style=ReplicationStyle.WARM_PASSIVE),
    )
    system.run_for(0.5)
    stub = system.stub("c", ior)
    for _ in range(3):
        system.call(stub.increment(1), timeout=60.0)
    system.crash("n1")
    system.run_for(0.075)  # mid-membership-change / early failover window
    system.crash("n2")
    system.run_for(10.0)
    system.stabilize()
    assert system.call(stub.increment(1), timeout=60.0) == 4
    assert system.states_of("ctr")["n3"] == 4


def test_partition_during_passive_failover():
    """The primary is partitioned away (not crashed): both sides promote a
    primary; at remerge the sides reconcile without losing operations."""
    system = fresh_system(["n1", "n2", "n3", "n4"])
    ior = system.create_replicated(
        "ctr", Counter, ["n1", "n2", "n3", "n4"],
        GroupPolicy(style=ReplicationStyle.WARM_PASSIVE),
    )
    system.run_for(0.5)
    stub_majority = system.stub("n2", ior)
    system.call(stub_majority.increment(1), timeout=60.0)
    system.partition([("n1",), ("n2", "n3", "n4")])
    system.stabilize(timeout=10.0)
    system.run_for(0.5)
    # The majority side promoted n2 and keeps serving.
    assert system.call(stub_majority.increment(1), timeout=60.0) == 2
    # The isolated old primary also serves its side (singleton component).
    stub_minority = system.stub("n1", ior)
    assert system.call(stub_minority.increment(10), timeout=60.0) == 11
    system.merge()
    system.stabilize(timeout=10.0)
    system.run_for(3.0)
    # n1's side is primary at remerge (lowest id): its state is adopted and
    # the majority side's op is replayed as fulfillment.
    states = system.states_of("ctr")
    assert len(set(states.values())) == 1
    # All three logical increments are reflected exactly once: 1 + 1 + 10.
    assert list(states.values())[0] == 12


def test_replication_under_background_message_loss():
    system = fresh_system(["n1", "n2", "n3", "c"], seed=13,
                          profile=LinkProfile(loss=0.03))
    ior = system.create_replicated(
        "ctr", Counter, ["n1", "n2", "n3"],
        GroupPolicy(style=ReplicationStyle.ACTIVE),
    )
    system.run_for(1.0)
    stub = system.stub("c", ior)
    for expected in range(1, 21):
        assert system.call(stub.increment(1), timeout=60.0) == expected
    system.run_for(2.0)
    assert set(system.states_of("ctr").values()) == {20}


def test_crash_and_recover_and_rehost_full_cycle():
    """A node crashes, recovers with empty state, is re-hosted, catches up
    by state transfer, and then survives being the only replica left."""
    system = fresh_system(["n1", "n2", "n3"])
    ior = system.create_replicated(
        "kv", KeyValueStore, ["n1", "n2", "n3"],
        GroupPolicy(style=ReplicationStyle.ACTIVE),
    )
    system.run_for(0.5)
    stub = system.stub("n1", ior)
    system.call(stub.put("k", "v1"))
    system.crash("n3")
    system.stabilize()
    system.call(stub.put("k", "v2"))
    system.recover("n3")
    system.stabilize()
    system.manager.records["kv"].locations.remove("n3")
    system.manager.add_member("kv", "n3")
    system.run_for(2.0)
    # n3 caught up; now kill everyone else.
    system.crash("n1")
    system.stabilize()
    system.crash("n2")
    system.stabilize()
    survivor = system.stub("n3", ior)
    assert system.call(survivor.get("k"), timeout=60.0) == "v2"


def test_rapid_crash_recover_flapping():
    """A node that crashes and recovers repeatedly must not wedge the
    group or corrupt the survivors."""
    system = fresh_system(["n1", "n2", "n3"], seed=2)
    ior = system.create_replicated(
        "ctr", Counter, ["n1", "n2"],
        GroupPolicy(style=ReplicationStyle.ACTIVE),
    )
    system.run_for(0.5)
    stub = system.stub("n3", ior)
    count = 0
    for cycle in range(3):
        count += 1
        assert system.call(stub.increment(1), timeout=60.0) == count
        system.crash("n2")
        system.run_for(0.2)
        system.recover("n2")
        system.run_for(0.5)
    system.stabilize()
    count += 1
    assert system.call(stub.increment(1), timeout=60.0) == count
    assert system.states_of("ctr")["n1"] == count
