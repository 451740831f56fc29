"""End-to-end tests of warm and cold passive replication and failover."""

from repro.core import EternalSystem
from repro.replication import GroupPolicy, ReplicationStyle
from repro.workloads import Counter, KeyValueStore


def system_up(nodes=("n1", "n2", "n3"), seed=0):
    system = EternalSystem(list(nodes), seed=seed).start()
    system.stabilize()
    return system


def warm(**overrides):
    return GroupPolicy(style=ReplicationStyle.WARM_PASSIVE, **overrides)


def cold(**overrides):
    overrides.setdefault("checkpoint_interval_ops", 3)
    return GroupPolicy(style=ReplicationStyle.COLD_PASSIVE, **overrides)


def test_warm_only_primary_executes():
    system = system_up()
    system.create_replicated("ctr", Counter, ["n1", "n2", "n3"], warm())
    system.run_for(0.3)
    stub = system.stub("n1", system.manager.ior_of("ctr"))
    for _ in range(4):
        system.call(stub.increment(1))
    replicas = system.replicas_of("ctr")
    assert replicas["n1"].is_primary  # lowest id is the primary
    # Backups applied state updates rather than executing: their counters
    # advanced, and the execution trace shows only the primary executing.
    assert set(system.states_of("ctr").values()) == {4}


def test_warm_state_updates_keep_backups_current():
    system = system_up()
    system.create_replicated("kv", KeyValueStore, ["n1", "n2", "n3"], warm())
    system.run_for(0.3)
    stub = system.stub("n2", system.manager.ior_of("kv"))
    system.call(stub.put("a", 1))
    system.call(stub.put("b", [1, 2, 3]))
    states = system.states_of("kv")
    assert states["n2"] == {"a": 1, "b": [1, 2, 3]}
    assert states["n1"] == states["n2"] == states["n3"]


def test_warm_read_only_skips_state_update():
    system = system_up()
    system.create_replicated("ctr", Counter, ["n1", "n2", "n3"], warm())
    system.run_for(0.3)
    stub = system.stub("n1", system.manager.ior_of("ctr"))
    system.call(stub.increment(1))
    before = system.sim.trace.count("ft.state.update.sent")
    for _ in range(5):
        assert system.call(stub.read()) == 1
    after = system.sim.trace.count("ft.state.update.sent")
    assert after == before


def test_warm_failover_promotes_backup():
    system = system_up()
    ior = system.create_replicated("ctr", Counter, ["n1", "n2", "n3"], warm())
    system.run_for(0.3)
    stub = system.stub("n3", ior)
    for _ in range(3):
        system.call(stub.increment(1))
    system.crash("n1")  # the primary
    system.stabilize()
    assert system.replicas_of("ctr")["n2"].is_primary
    assert system.call(stub.increment(1)) == 4
    states = system.states_of("ctr")
    assert states["n2"] == 4 and states["n3"] == 4


def test_warm_failover_completes_in_flight_request():
    """A request delivered but unexecuted when the primary dies must be
    completed by the new primary (the paper's reinvocation scenario)."""
    system = system_up()
    ior = system.create_replicated("ctr", Counter, ["n1", "n2", "n3"], warm())
    system.run_for(0.3)
    stub = system.stub("n3", ior)
    system.call(stub.increment(1))
    # Crash the primary immediately after issuing; depending on timing the
    # request is either never delivered (client never sees a reply until
    # retry/timeout) or delivered and completed by the new primary.
    future = stub.increment(1)
    system.crash("n1")
    system.run_for(8.0)
    system.stabilize()
    if future.done() and future.exception() is None:
        assert future.result() == 2
        assert system.states_of("ctr")["n2"] == 2
    else:
        # The request died with the primary before ordering: state must
        # still be consistent at 1 across survivors.
        assert set(system.states_of("ctr").values()) == {1}


def test_warm_no_duplicate_execution_across_failover():
    system = system_up()
    ior = system.create_replicated("ctr", Counter, ["n1", "n2", "n3"], warm())
    system.run_for(0.3)
    stub = system.stub("n2", ior)
    for _ in range(5):
        system.call(stub.increment(1))
    system.crash("n1")
    system.stabilize()
    for _ in range(5):
        system.call(stub.increment(1))
    assert set(system.states_of("ctr").values()) == {10}


def test_cold_backups_do_not_apply_until_checkpoint():
    system = system_up()
    system.create_replicated("ctr", Counter, ["n1", "n2", "n3"],
                             cold(checkpoint_interval_ops=100))
    system.run_for(0.3)
    stub = system.stub("n1", system.manager.ior_of("ctr"))
    for _ in range(4):
        system.call(stub.increment(1))
    replicas = system.replicas_of("ctr")
    assert replicas["n1"].servant.value == 4
    assert replicas["n2"].servant.value == 0  # no checkpoint yet
    assert len(replicas["n2"].table.pending_in_order()) == 4  # but everything logged


def test_cold_checkpoint_truncates_backup_logs():
    system = system_up()
    system.create_replicated("ctr", Counter, ["n1", "n2", "n3"], cold())
    system.run_for(0.3)
    stub = system.stub("n1", system.manager.ior_of("ctr"))
    for _ in range(3):  # hits the checkpoint interval
        system.call(stub.increment(1))
    system.run_for(0.5)
    replicas = system.replicas_of("ctr")
    assert replicas["n2"].servant.value == 3  # checkpoint applied
    assert len(replicas["n2"].table.pending_in_order()) == 0


def test_cold_failover_replays_log():
    system = system_up()
    ior = system.create_replicated("ctr", Counter, ["n1", "n2", "n3"], cold())
    system.run_for(0.3)
    stub = system.stub("n3", ior)
    for _ in range(5):  # 3 covered by a checkpoint, 2 in the log
        system.call(stub.increment(1))
    system.crash("n1")
    system.stabilize()
    system.run_for(1.0)
    # New primary replayed the logged tail; clients see continuous state.
    assert system.call(stub.increment(1)) == 6
    assert system.states_of("ctr")["n2"] == 6


def test_semi_active_only_leader_replies_but_all_execute():
    system = system_up()
    policy = GroupPolicy(style=ReplicationStyle.SEMI_ACTIVE)
    ior = system.create_replicated("ctr", Counter, ["n1", "n2", "n3"], policy)
    system.run_for(0.3)
    stub = system.stub("n2", ior)
    for _ in range(4):
        system.call(stub.increment(1))
    # Every replica executed (state equal without state updates)...
    assert set(system.states_of("ctr").values()) == {4}
    assert system.sim.trace.count("ft.state.update.sent") == 0
    # ...but followers never sent replies.
    followers = [r for r in system.replicas_of("ctr").values() if not r.is_primary]
    assert all(f.table.suppressed_replies >= 4 for f in followers)


def test_semi_active_failover():
    system = system_up()
    ior = system.create_replicated(
        "ctr", Counter, ["n1", "n2", "n3"], GroupPolicy(style=ReplicationStyle.SEMI_ACTIVE)
    )
    system.run_for(0.3)
    stub = system.stub("n3", ior)
    system.call(stub.increment(1))
    system.crash("n1")
    system.stabilize()
    assert system.call(stub.increment(1)) == 2
