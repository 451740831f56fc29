"""The Totem data path: one token visit, and a hold that only an idle
ring pays.

A token visit flushes the visitor's whole send queue as full frames,
data before token, and forwards with zero hold; the representative parks
the token only after a rotation that had nothing to do, and a member
with something to send wakes it with a hold-cancel.  These tests pin
*what* is delivered (one gap-free total order under loss, bursts,
crashes, pre-ring sends) and *when* the idle hold may and may not be
paid.
"""

from repro.chaos import InvariantChecker
from repro.runtime import SimRuntime
from repro.simnet import FaultPlan, LinkProfile
from repro.totem import TotemCluster
from repro.totem.config import TotemConfig
from repro.totem.messages import HoldCancel
from repro.wire import encode as wire_encode

NODES = ["n1", "n2", "n3", "n4"]   # n1 sorts first: the representative
HOP = LinkProfile().latency

# Unicast datagrams (token hops) the parent tree -- 30 us hold at every
# member, no idle hold -- spent in one idle virtual second on this ring.
PARENT_IDLE_TOKEN_HOPS = 7131


def app_payloads(cluster, node_id):
    return [
        d.payload for d in cluster.deliveries[node_id]
        if not (isinstance(d.payload, tuple) and d.payload
                and d.payload[0] == "announce")
    ]


def _run_workload(seed=0, profile=None):
    """Three nodes, interleaved sends from all of them; returns sequences."""
    cluster = TotemCluster(["n1", "n2", "n3"], seed=seed,
                           profile=profile).start()
    cluster.run_until_stable(timeout=2.0)
    for i in range(12):
        cluster.processors["n1"].send(("m", "n1", i))
        cluster.processors["n2"].send(("m", "n2", i))
        cluster.processors["n3"].send(("m", "n3", i))
        cluster.sim.run_for(0.0007)  # spread enqueues across token visits
    cluster.sim.run_for(2.0)
    return {n: app_payloads(cluster, n) for n in ("n1", "n2", "n3")}, cluster


def test_one_total_order_and_per_sender_fifo():
    sequences, cluster = _run_workload(seed=11)
    assert sequences["n1"] == sequences["n2"] == sequences["n3"]
    assert len(sequences["n1"]) == 36
    for sender in ("n1", "n2", "n3"):
        assert ([p[2] for p in sequences["n1"] if p[1] == sender]
                == list(range(12)))
    # Fresh messages are never rebroadcast: the sender stores its own
    # copy at the visit, so no retransmission is ever requested.
    snapshot = cluster.telemetry.metrics.snapshot()
    assert snapshot.get("totem.retransmit.budget", 0) == 0
    assert snapshot.get("totem.pipeline.flush", 0) > 0


def test_total_order_under_loss():
    lossy = LinkProfile(latency=100e-6, loss=0.05)
    sequences, cluster = _run_workload(seed=4, profile=lossy)
    assert sequences["n1"] == sequences["n2"] == sequences["n3"]
    assert len(sequences["n1"]) == 36
    # Lost frames surface as sequence gaps and come back as DataMessage
    # retransmissions via the rtr machinery.
    snapshot = cluster.telemetry.metrics.snapshot()
    assert snapshot.get("totem.retransmit.budget", 0) > 0


def test_safe_guarantee_still_waits_full_rotation():
    cluster = TotemCluster(["n1", "n2", "n3"]).start()
    cluster.run_until_stable(timeout=2.0)
    cluster.processors["n1"].send("s1", guarantee="safe")
    cluster.processors["n2"].send("a1", guarantee="agreed")
    cluster.sim.run_for(1.0)
    for node_id in ("n1", "n2", "n3"):
        payloads = app_payloads(cluster, node_id)
        assert "s1" in payloads and "a1" in payloads
    assert (app_payloads(cluster, "n1") == app_payloads(cluster, "n2")
            == app_payloads(cluster, "n3"))


def test_large_burst_delivers_all_in_order():
    cluster = TotemCluster(["n1", "n2"]).start()
    cluster.run_until_stable(timeout=2.0)
    for i in range(500):
        cluster.processors["n1"].send(i, size=32)
    cluster.sim.run_for(3.0)
    assert app_payloads(cluster, "n2") == list(range(500))


def test_survives_crash_and_reforms():
    cluster = TotemCluster(["n1", "n2", "n3"]).start()
    cluster.run_until_stable(timeout=2.0)
    for i in range(5):
        cluster.processors["n1"].send(("pre", i))
    cluster.sim.run_for(0.5)
    cluster.net.node("n3").crash()
    cluster.sim.run_for(3.0)
    for i in range(5):
        cluster.processors["n1"].send(("post", i))
    cluster.sim.run_for(2.0)
    n1, n2 = app_payloads(cluster, "n1"), app_payloads(cluster, "n2")
    assert n1 == n2
    assert [p for p in n1 if p[0] == "post"] == [("post", i) for i in range(5)]


def test_queued_before_ring_is_sent_on_the_first_visit():
    cluster = TotemCluster(["n1", "n2"])
    for processor in cluster.processors.values():
        processor.start()
    cluster.processors["n1"].send("early")
    cluster.run_until_stable(timeout=2.0)
    cluster.sim.run_for(0.5)
    assert app_payloads(cluster, "n2") == ["early"]


# ----------------------------------------------------------------------
# The representative's idle hold and its cancel
# ----------------------------------------------------------------------


def _idle_ring(seed=0, idle=1.0):
    """A 4-node ring that has had nothing to do for ``idle`` seconds,
    with every delivery time-stamped."""
    runtime = SimRuntime(seed=seed, keep_trace_records=True)
    cluster = TotemCluster(NODES, runtime=runtime).start()
    cluster.run_until_stable(timeout=2.0)
    cluster.delivered_at = {}
    for node_id, processor in cluster.processors.items():
        def stamp(message, node_id=node_id):
            cluster.delivered_at.setdefault(message.payload, {})[node_id] = (
                cluster.sim.now)
        processor.on_deliver = stamp
    cluster.sim.run_for(idle)
    return cluster


def _holds(cluster):
    return cluster.runtime.trace.count("totem.token.hold")


def _cancels(cluster):
    return cluster.runtime.trace.count("totem.token.hold_cancel")


def _run_to_parked(cluster, parked=True):
    """Step to an instant where the representative is (not) holding."""
    rep = cluster.processors["n1"]
    for _ in range(10000):
        if (rep._parked_token is not None) == parked:
            return
        cluster.sim.run_for(10e-6)
    raise AssertionError("representative never reached parked=%s" % parked)


def _latency(cluster, payload, sent_at):
    times = cluster.delivered_at.get(payload, {})
    assert sorted(times) == NODES, "not delivered everywhere: %r" % (times,)
    return max(times.values()) - sent_at


def test_idle_ring_makes_fewer_token_visits_than_a_constant_hold():
    cluster = _idle_ring(idle=0.5)
    trace = cluster.runtime.trace
    hops_before, holds_before = trace.count("net.send"), _holds(cluster)
    cluster.sim.run_for(1.0)
    hops = trace.count("net.send") - hops_before
    assert hops == 1360                       # pinned: 340 rotations
    assert hops <= PARENT_IDLE_TOKEN_HOPS
    # One hold per rotation, only ever at the representative.
    assert 339 <= _holds(cluster) - holds_before <= 341
    assert {r.detail["node"] for r in trace.matching("totem.token.hold")
            } == {"n1"}
    assert trace.count("totem.token.retransmit") == 0


def test_send_on_an_idle_ring_does_not_wait_for_the_hold():
    hold = TotemConfig().idle_hold
    for sender in ("n2", "n3", "n4"):
        cluster = _idle_ring()
        _run_to_parked(cluster)
        cluster.sim.run_for(hold / 5)         # well inside the hold
        sent_at = cluster.sim.now
        cluster.processors[sender].send(("wake", sender))
        cluster.sim.run_for(hold)
        # The cancel hop, then one zero-hold rotation reaches the sender,
        # then the broadcast hop: nowhere near the rest of the hold.
        latency = _latency(cluster, ("wake", sender), sent_at)
        assert latency < (len(NODES) + 2) * HOP + 100e-6 < hold / 2
        assert _cancels(cluster) == 1


def test_local_send_at_the_representative_cancels_directly():
    cluster = _idle_ring()
    _run_to_parked(cluster)
    sent_at = cluster.sim.now
    cluster.processors["n1"].send("mine")
    cluster.sim.run_for(TotemConfig().idle_hold)
    assert _latency(cluster, "mine", sent_at) < 2 * HOP
    assert _cancels(cluster) == 0             # no frame: nobody to tell


def test_dropped_cancel_costs_one_hold_not_the_message():
    hold = TotemConfig().idle_hold
    cluster = _idle_ring()
    _run_to_parked(cluster)
    now = cluster.sim.now
    FaultPlan().loss_burst(now, 1.0, 20e-6).arm(cluster.net)
    cluster.sim.run_for(10e-6)                # inside the burst
    sent_at = cluster.sim.now
    cluster.processors["n3"].send("patient")
    cluster.sim.run_for(2 * hold)
    assert cluster.runtime.trace.count("net.drop.loss") == 1   # the cancel
    latency = _latency(cluster, "patient", sent_at)
    assert hold / 2 < latency < hold + (len(NODES) + 1) * HOP


def test_representative_crash_during_hold_reforms_within_the_bound():
    cluster = _idle_ring()
    _run_to_parked(cluster)
    crashed_at = cluster.sim.now
    cluster.net.node("n1").crash()
    cluster.run_until_stable(timeout=5.0)
    events = [(r.time, r.category, r.detail, 0)
              for r in cluster.runtime.trace.records]
    checker = InvariantChecker()
    durations = checker.check_failover(events, bound=5.0)   # E12's bound
    assert checker.report.ok, checker.report.violations
    config = cluster.config
    assert durations and durations[0] < (
        config.token_loss_timeout + config.consensus_timeout
        + config.commit_timeout)
    assert cluster.sim.now - crashed_at < 0.5
    cluster.processors["n2"].send("after")
    cluster.sim.run_for(0.1)
    assert sorted(cluster.delivered_at["after"]) == ["n2", "n3", "n4"]


def test_safe_message_on_an_idle_ring_never_waits_out_a_hold():
    hold = TotemConfig().idle_hold
    cluster = _idle_ring()
    _run_to_parked(cluster)
    holds_before = _holds(cluster)
    sent_at = cluster.sim.now
    cluster.processors["n3"].send("durable", guarantee="safe")
    cluster.sim.run_for(hold)
    # Ordered on the first rotation, known received everywhere on the
    # second, announced safe on the third -- all three at zero hold.
    latency = _latency(cluster, "durable", sent_at)
    assert latency < 3 * (len(NODES) + 1) * HOP + 200e-6 < hold
    delivered = max(cluster.delivered_at["durable"].values())
    assert not [r for r in cluster.runtime.trace.matching("totem.token.hold")
                if sent_at < r.time <= delivered]
    assert _holds(cluster) > holds_before     # ...and parks again after


def test_cancel_that_beats_the_token_skips_the_next_hold():
    hold = TotemConfig().idle_hold
    cluster = _idle_ring()
    _run_to_parked(cluster)
    _run_to_parked(cluster, parked=False)
    # The hold just ended; after two hops the token has left n2 (which
    # saw it quiet) and is two more hops away from the representative.
    cluster.sim.run_for(2 * HOP + 50e-6)
    holds_before = _holds(cluster)
    sent_at = cluster.sim.now
    cluster.processors["n2"].send("racer")
    cluster.sim.run_for(hold)
    assert _cancels(cluster) == 1
    latency = _latency(cluster, "racer", sent_at)
    assert latency < (len(NODES) + 3) * HOP + 100e-6 < hold / 2
    delivered = max(cluster.delivered_at["racer"].values())
    assert not [r for r in cluster.runtime.trace.matching("totem.token.hold")
                if sent_at < r.time <= delivered]
    assert _holds(cluster) > holds_before


def test_stray_cancel_for_another_ring_is_ignored():
    cluster = _idle_ring(idle=0.1)
    stale = cluster.processors["n2"].ring
    cluster.net.node("n4").crash()
    cluster.run_until_stable(timeout=5.0)
    cluster.sim.run_for(0.1)
    _run_to_parked(cluster)
    data = wire_encode(HoldCancel(stale), ring=0)
    cluster.net.send("n2", "n1", "totem", data)
    cluster.sim.run_for(2 * HOP)
    assert cluster.processors["n1"]._parked_token is not None


# ----------------------------------------------------------------------
# The representative's pacing of a busy ring
# ----------------------------------------------------------------------


def _busy_ring(profile, seconds, late=0.0, warmup=0.01):
    """A 4-node ring on which n2 always has something to send.

    ``late`` makes every paced release of the representative fire that
    much after it is due, the way an event loop's timers do.  The ring
    is first kept busy for a while, so that the window measured is
    steady state; returns the cluster and the token hops made in the
    ``seconds`` after that.
    """
    runtime = SimRuntime(seed=0, profile=profile, keep_trace_records=True)
    cluster = TotemCluster(NODES, runtime=runtime).start()
    cluster.run_until_stable(timeout=2.0)
    if late:
        endpoint = cluster.processors["n1"].ep
        timer = endpoint.timer
        endpoint.timer = (
            lambda delay, callback, label="":
            timer(delay + late if label == "token.pace" else delay,
                  callback, label))
    sender = cluster.processors["n2"]
    sent = [0]

    def keep_busy(duration, step=20e-6):
        for _ in range(int(round(duration / step))):
            if not sender.send_queue:
                sender.send(sent[0])
                sent[0] += 1
            cluster.sim.run_for(step)

    keep_busy(warmup)
    hops_before = cluster.runtime.trace.count("net.send")
    holds_before = _holds(cluster)
    keep_busy(seconds)
    hops = cluster.runtime.trace.count("net.send") - hops_before
    assert _holds(cluster) == holds_before    # a busy ring never parks
    cluster.sim.run_for(0.01)
    for node_id in NODES:
        assert app_payloads(cluster, node_id) == list(range(sent[0]))
    return cluster, hops


def _paced(cluster):
    return cluster.telemetry.metrics.snapshot().get("totem.token.paced", 0)


def test_busy_ring_rotates_once_per_min_rotation():
    period = TotemConfig().min_rotation
    fast = LinkProfile(latency=10e-6)         # a rotation costs 40 us
    cluster, hops = _busy_ring(fast, seconds=100 * period)
    assert 99 <= hops / len(NODES) <= 101
    assert _paced(cluster) >= 99
    assert cluster.runtime.trace.count("totem.token.retransmit") == 0


def test_a_late_release_is_made_up_not_accumulated():
    period = TotemConfig().min_rotation
    fast = LinkProfile(latency=10e-6)
    # Every paced release fires 0.6 periods late; measured from the
    # release itself that would be 1.6 periods a rotation (62 in the
    # window).  The schedule is fixed-rate: still one per period.
    cluster, hops = _busy_ring(fast, seconds=100 * period,
                               late=0.6 * period)
    assert 98 <= hops / len(NODES) <= 101


def test_time_spent_idle_is_not_lateness_to_make_up():
    period = TotemConfig().min_rotation
    fast = LinkProfile(latency=10e-6)
    # Straight from a long idle spell into load: the schedule restarts
    # at the wake-up, the first rotations are not a catch-up burst.
    cluster, hops = _busy_ring(fast, seconds=20 * period, warmup=0.0)
    assert hops / len(NODES) <= 22


def test_rotation_longer_than_the_period_is_never_paced():
    # Simulator defaults: four 100 us hops against a 200 us period.
    assert len(NODES) * HOP > TotemConfig().min_rotation
    cluster, hops = _busy_ring(None, seconds=0.05)
    assert _paced(cluster) == 0
    assert hops / len(NODES) > 0.05 / (len(NODES) * HOP + 100e-6)
