"""Per-operation state is bounded by outstanding work, not by uptime.

(c) On the simulator, every per-operation container the replication
layer and the ORB keep stays small however many operations complete, and
the state capture does not grow.  (d) On real sockets, a group that has
completed hundreds of operations still survives a membership change --
the capture used to outgrow a UDP datagram at ~205 operations and wedge
the group at its next view change.
"""

import socket
from collections import deque

import pytest

from repro.core import EternalSystem
from repro.orb.cdr import encode_value
from repro.replication import GroupPolicy, ReplicationStyle
from repro.workloads import Counter, EchoServer, KeyValueStore

REPLICAS = ["s1", "s2", "s3"]
BOUND = 64


def _container_sizes(owner):
    """``{path: len}`` of every container reachable from ``owner``'s
    attributes (one level of objects defined in ``repro.replication``)."""
    sizes = {}
    names = list(getattr(owner, "__dict__", ())) + [
        slot for cls in type(owner).__mro__
        for slot in getattr(cls, "__slots__", ())]
    for name in names:
        value = getattr(owner, name, None)
        if isinstance(value, (dict, list, set, deque)):
            sizes["%s.%s" % (type(owner).__name__, name)] = len(value)
    return sizes


def _per_op_containers(system, group):
    sizes = {}
    for node in system.nodes:
        engine = system.engine(node)
        owners = [engine, engine.orb]
        replica = engine.replica(group)
        if replica is not None:
            owners += [replica, replica.table, replica.table.retired]
            owners += list(replica.table.retired.ranges.values())
        for owner in owners:
            for path, size in _container_sizes(owner).items():
                sizes["%s:%s" % (node, path)] = size
    return sizes


def _capture_bytes(system, group):
    engine = system.engine("s1")
    return len(encode_value(engine._capture(engine.replica(group)).as_value()))


@pytest.mark.parametrize("style, servant, total, call", [
    (ReplicationStyle.ACTIVE, EchoServer, 1500,
     lambda stub, i: stub.echo("payload-%06d" % i)),
    (ReplicationStyle.WARM_PASSIVE, KeyValueStore, 600,
     lambda stub, i: stub.put("key-%d" % (i % 8), i)),
], ids=["active-echo", "warm-passive-put"])
def test_per_op_state_is_bounded_on_the_simulator(style, servant, total, call):
    system = EternalSystem(REPLICAS + ["c"], seed=3).start()
    system.stabilize()
    ior = system.create_replicated("g", servant, REPLICAS,
                                   GroupPolicy(style=style))
    system.run_for(0.5)
    stub = system.stub("c", ior)
    capture_sizes = {}
    for i in range(total):
        system.call(call(stub, i), timeout=30.0)
        if i + 1 in (total // 3, total):
            capture_sizes[i + 1] = _capture_bytes(system, "g")
    oversized = {path: size
                 for path, size in _per_op_containers(system, "g").items()
                 if size > BOUND}
    assert not oversized
    assert system.sim.scheduler.pending() <= BOUND
    early, late = capture_sizes[total // 3], capture_sizes[total]
    assert abs(late - early) <= 64, capture_sizes
    # Identity is still remembered: every replica refuses a replay of the
    # very first operation without holding anything of it.
    first = ("c", "client/c", 1)
    for replica in system.replicas_of("g").values():
        assert first not in replica.table.live
        assert replica.table.status(first) == "completed"


def _sockets_available():
    try:
        probe = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        probe.bind(("127.0.0.1", 0))
        probe.close()
        return True
    except OSError:
        return False


@pytest.mark.slow
@pytest.mark.skipif(not _sockets_available(), reason="UDP sockets unavailable")
def test_group_survives_a_membership_change_after_300_ops_on_sockets():
    from repro.runtime.aio import AsyncioRuntime
    from repro.totem.config import TotemConfig

    runtime = AsyncioRuntime(seed=5)
    system = EternalSystem(REPLICAS + ["c"], totem_config=TotemConfig.realtime(),
                           runtime=runtime).start()
    try:
        system.stabilize(timeout=15.0, settle=0.5)
        ior = system.create_replicated(
            "ctr", Counter, REPLICAS,
            GroupPolicy(style=ReplicationStyle.WARM_PASSIVE))
        system.run_for(0.5)
        stub = system.stub("c", ior)
        for _ in range(300):
            system.call(stub.increment(1), timeout=10.0)
        primary = min(REPLICAS)
        system.crash(primary)
        system.run_for(1.0)
        system.recover(primary)
        system.stabilize(timeout=15.0, settle=0.5)
        system.manager.remove_member("ctr", primary)
        system.manager.add_member("ctr", primary)
        system.run_for(1.0)
        for _ in range(50):
            system.call(stub.increment(1), timeout=10.0)
        system.run_for(0.5)
        replicas = system.replicas_of("ctr")
        assert sorted(replicas) == REPLICAS
        assert all(replica.ready for replica in replicas.values())
        assert set(system.states_of("ctr").values()) == {350}
    finally:
        runtime.close()
