"""Totem protocol behaviour under loss, token faults, and merge timing."""

from repro.simnet import LinkProfile
from repro.totem import TotemCluster, TotemConfig
from repro.totem.events import RegularConfiguration


def app_payloads(cluster, node_id):
    return [
        d.payload for d in cluster.deliveries[node_id]
        if not (isinstance(d.payload, tuple) and d.payload
                and d.payload[0] == "announce")
    ]


def test_token_retransmission_recovers_lost_token():
    # 10% loss: tokens are regularly dropped; retransmission must keep the
    # ring alive without constant membership churn.
    cluster = TotemCluster(
        ["n1", "n2", "n3"], seed=21, profile=LinkProfile(loss=0.10)
    ).start()
    cluster.run_until_stable(timeout=10.0)
    for i in range(30):
        cluster.processors["n1"].send(("m", i))
    cluster.sim.run_for(10.0)
    assert app_payloads(cluster, "n3") == [("m", i) for i in range(30)]
    assert cluster.sim.trace.count("totem.token.retransmit") > 0


def test_data_retransmission_requests_served():
    cluster = TotemCluster(
        ["n1", "n2", "n3"], seed=4, profile=LinkProfile(loss=0.15)
    ).start()
    cluster.run_until_stable(timeout=10.0)
    for i in range(60):
        cluster.processors["n2"].send(("d", i), size=256)
    cluster.sim.run_for(15.0)
    for node in ("n1", "n2", "n3"):
        assert app_payloads(cluster, node) == [("d", i) for i in range(60)]


def test_safe_messages_survive_loss():
    cluster = TotemCluster(
        ["n1", "n2", "n3"], seed=8, profile=LinkProfile(loss=0.08)
    ).start()
    cluster.run_until_stable(timeout=10.0)
    for i in range(20):
        cluster.processors["n3"].send(("s", i), guarantee="safe")
    cluster.sim.run_for(10.0)
    for node in ("n1", "n2", "n3"):
        assert app_payloads(cluster, node) == [("s", i) for i in range(20)]


def test_merge_detected_via_beacon_within_interval():
    config = TotemConfig(beacon_interval=0.05)
    cluster = TotemCluster(["n1", "n2", "n3", "n4"], config=config).start()
    cluster.run_until_stable(timeout=5.0)
    cluster.net.partition([("n1", "n2"), ("n3", "n4")])
    cluster.run_until_stable(timeout=5.0)
    merge_time = cluster.sim.now
    cluster.net.merge()
    cluster.run_until_stable(timeout=5.0)
    # Detection cannot beat the beacon; convergence lands within a small
    # number of beacon intervals plus the membership exchange.
    elapsed = cluster.sim.now - merge_time
    assert 0.0 < elapsed < 20 * config.beacon_interval


def test_ring_ids_strictly_increase():
    cluster = TotemCluster(["n1", "n2", "n3"]).start()
    cluster.run_until_stable(timeout=5.0)
    cluster.net.node("n3").crash()
    cluster.run_until_stable(timeout=5.0)
    cluster.net.node("n3").recover()
    cluster.run_until_stable(timeout=5.0)
    seqs = [
        e.ring_key[0] for e in cluster.configs["n1"]
        if isinstance(e, RegularConfiguration)
    ]
    assert seqs == sorted(seqs)
    assert len(set(seqs)) == len(seqs)


def test_garbage_collection_bounds_store():
    cluster = TotemCluster(["n1", "n2"]).start()
    cluster.run_until_stable(timeout=5.0)
    for i in range(2000):
        cluster.processors["n1"].send(i, size=16)
    cluster.sim.run_for(10.0)
    # Everything delivered and safe: the stores must have been collected.
    for processor in cluster.processors.values():
        assert len(processor.store.received) < 200


def test_evs_invariants_hold_under_extreme_loss():
    """At 20% loss the ring churns; extended virtual synchrony does NOT
    promise completeness across configurations a member missed -- the
    end-to-end guarantee belongs to the replication layer's retries.  What
    must still hold: no duplicates, and all messages delivered at two
    members appear in the same relative order."""
    cluster = TotemCluster(
        ["n1", "n2", "n3", "n4"], seed=4, profile=LinkProfile(loss=0.2)
    ).start()
    cluster.run_until_stable(timeout=20.0)
    for i in range(40):
        sender = ["n1", "n2", "n3", "n4"][i % 4]
        cluster.processors[sender].send((sender, i))
    cluster.sim.run_for(30.0)
    sequences = {n: app_payloads(cluster, n) for n in ("n1", "n2", "n3", "n4")}
    for node, sequence in sequences.items():
        assert len(sequence) == len(set(sequence)), "duplicate at %s" % node
    nodes = list(sequences)
    for a in nodes:
        for b in nodes:
            if a >= b:
                continue
            common_a = [m for m in sequences[a] if m in sequences[b]]
            common_b = [m for m in sequences[b] if m in sequences[a]]
            assert common_a == common_b, "order disagreement %s vs %s" % (a, b)


def test_queue_depth_visible_and_drains():
    config = TotemConfig(window=2)
    cluster = TotemCluster(["n1", "n2"], config=config).start()
    cluster.run_until_stable(timeout=5.0)
    for i in range(50):
        cluster.processors["n1"].send(i)
    assert cluster.processors["n1"].queue_depth > 0
    cluster.sim.run_for(5.0)
    assert cluster.processors["n1"].queue_depth == 0
    assert app_payloads(cluster, "n2") == list(range(50))
