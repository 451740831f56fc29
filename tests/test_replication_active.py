"""End-to-end tests of active replication."""

import pytest

from repro.core import EternalSystem
from repro.orb import ApplicationError
from repro.replication import GroupPolicy, ReplicationStyle
from repro.workloads import BankAccount, Counter


def active_system(nodes=("n1", "n2", "n3"), seed=0):
    system = EternalSystem(list(nodes), seed=seed).start()
    system.stabilize()
    return system


def active_policy(**overrides):
    return GroupPolicy(style=ReplicationStyle.ACTIVE, **overrides)


def test_invocation_on_replicated_object():
    system = active_system()
    ior = system.create_replicated("ctr", Counter, ["n1", "n2", "n3"], active_policy())
    system.run_for(0.3)
    stub = system.stub("n1", ior)
    assert system.call(stub.increment(5)) == 5
    assert system.call(stub.read()) == 5


def test_all_replicas_execute_and_agree():
    system = active_system()
    system.create_replicated("ctr", Counter, ["n1", "n2", "n3"], active_policy())
    system.run_for(0.3)
    stub = system.stub("n1", system.manager.ior_of("ctr"))
    for i in range(10):
        system.call(stub.increment(1))
    states = system.states_of("ctr")
    assert states == {"n1": 10, "n2": 10, "n3": 10}


def test_each_operation_executed_once_per_replica():
    system = active_system()
    system.create_replicated("ctr", Counter, ["n1", "n2", "n3"], active_policy())
    system.run_for(0.3)
    stub = system.stub("n2", system.manager.ior_of("ctr"))
    for _ in range(5):
        system.call(stub.increment(1))
    for replica in system.replicas_of("ctr").values():
        assert replica.ops_applied == 5


def test_client_on_non_member_node():
    system = active_system(("n1", "n2", "n3", "client"))
    ior = system.create_replicated("ctr", Counter, ["n1", "n2", "n3"], active_policy())
    system.run_for(0.3)
    stub = system.stub("client", ior)
    assert system.call(stub.increment(7)) == 7


def test_replica_crash_transparent_to_client():
    system = active_system()
    ior = system.create_replicated("ctr", Counter, ["n1", "n2", "n3"], active_policy())
    system.run_for(0.3)
    stub = system.stub("n1", ior)
    assert system.call(stub.increment(1)) == 1
    system.crash("n3")
    system.stabilize()
    assert system.call(stub.increment(1)) == 2
    states = system.states_of("ctr")
    assert states["n1"] == 2 and states["n2"] == 2


def test_crash_of_all_but_one_replica_still_serves():
    system = active_system()
    ior = system.create_replicated("ctr", Counter, ["n1", "n2", "n3"], active_policy())
    system.run_for(0.3)
    stub = system.stub("n1", ior)
    system.call(stub.increment(1))
    system.crash("n2")
    system.crash("n3")
    system.stabilize()
    assert system.call(stub.increment(1)) == 2


def test_user_exceptions_replicate_consistently():
    system = active_system()
    ior = system.create_replicated(
        "acct", lambda: BankAccount("alice", 10), ["n1", "n2", "n3"], active_policy()
    )
    system.run_for(0.3)
    stub = system.stub("n1", ior)
    with pytest.raises(ApplicationError):
        system.call(stub.withdraw(100))
    # The failed operation must not have corrupted any replica.
    for state in system.states_of("acct").values():
        assert state["balance"] == 10


def test_concurrent_clients_totally_ordered():
    system = active_system(("n1", "n2", "n3", "c1", "c2"))
    ior = system.create_replicated("ctr", Counter, ["n1", "n2", "n3"], active_policy())
    system.run_for(0.3)
    stub1 = system.stub("c1", ior)
    stub2 = system.stub("c2", ior)
    futures = []
    for _ in range(10):
        futures.append(stub1.increment(1))
        futures.append(stub2.increment(1))
    system.run_for(3.0)
    results = sorted(f.result() for f in futures)
    assert results == list(range(1, 21))
    assert set(system.states_of("ctr").values()) == {20}


def test_duplicate_replies_suppressed():
    system = active_system()
    system.create_replicated("ctr", Counter, ["n1", "n2", "n3"], active_policy())
    system.run_for(0.3)
    stub = system.stub("n1", system.manager.ior_of("ctr"))
    for _ in range(5):
        system.call(stub.increment(1))
    # 3 replicas executed each op; exactly one reply per op must have been
    # accepted, and the client's counter reflects single execution.
    assert system.call(stub.read()) == 5
    stats = [
        r.table.suppressed_replies for r in system.replicas_of("ctr").values()
    ]
    # With three replicas racing, some replies are suppressed at senders
    # (cancelled while queued) -- at least the accounting must be present.
    assert all(s >= 0 for s in stats)


def test_oneway_operation_executes_on_all_replicas():
    system = active_system()
    ior = system.create_replicated("ctr", Counter, ["n1", "n2", "n3"], active_policy())
    system.run_for(0.3)
    stub = system.stub("n1", ior, interface=Counter)
    future = stub.poke()
    assert future.done() and future.result() is None
    system.run_for(1.0)
    assert set(system.states_of("ctr").values()) == {1}


def test_recovered_node_rehosted_replica_catches_up():
    system = active_system()
    ior = system.create_replicated("ctr", Counter, ["n1", "n2", "n3"], active_policy())
    system.run_for(0.3)
    stub = system.stub("n1", ior)
    system.call(stub.increment(1))
    system.crash("n3")
    system.stabilize()
    system.call(stub.increment(1))
    system.recover("n3")
    system.stabilize()
    # Management plane re-hosts the replica; it initializes by state transfer.
    system.manager.records["ctr"].locations.remove("n3")
    system.manager.add_member("ctr", "n3")
    system.run_for(1.0)
    system.call(stub.increment(1))
    system.run_for(1.0)
    states = system.states_of("ctr")
    assert states == {"n1": 3, "n2": 3, "n3": 3}
