"""Pull-style heartbeat fault detection over plain IIOP.

Heartbeats are ordinary ``is_alive`` invocations through the detector's
ORB, so they ride the same framed GIOP/TCP path (:mod:`repro.wire`) as
application traffic -- there is no separate heartbeat wire format, and
the byte accounting in the fault-detection benchmarks reflects the real
encoded ping size.
"""

from repro.orb.exceptions import TimeoutError_
from repro.orb.idl import Servant, operation


class PullMonitorable(Servant):
    """The object a fault detector pings (FT-CORBA's PullMonitorable)."""

    OBJECT_KEY = "ft/monitorable"

    def __init__(self, node):
        self.node = node
        self.pings = 0

    @operation(read_only=True)
    def is_alive(self):
        self.pings += 1
        return True


class MonitoredTarget:
    """Detector-side record for one monitored endpoint."""

    __slots__ = ("name", "ior", "misses", "suspected", "last_ok",
                 "pending", "deadline", "next_ping", "armed")

    def __init__(self, name, ior):
        self.name = name
        self.ior = ior
        self.misses = 0
        self.suspected = False
        self.last_ok = None
        self.pending = None     # outstanding ping Future, if any
        self.deadline = None    # when the outstanding ping is declared missed
        self.next_ping = None   # when the next ping is due
        self.armed = False      # a scheduler timer chain is live


class HeartbeatFaultDetector:
    """Periodically pulls ``is_alive`` from targets; reports the silent.

    Timer discipline: each monitored target has exactly ONE timer, rearmed
    when it fires for the next due event (ping send or reply deadline,
    whichever comes first).  Timers are never cancelled and reposted per
    heartbeat -- the earlier design armed a throwaway ORB request-timeout
    timer for every ping, so a detector watching H hosts leaked H dead
    timer events per interval into the scheduler.  Pings are issued with
    ``timeout=0`` (caller-managed deadline); at the deadline the detector
    withdraws the pending entry itself via ``orb.forget_pending`` and
    fails the future, which feeds the ordinary miss accounting.

    Args:
        orb: the detecting node's ORB (pings travel over its transport).
        interval: heartbeat period, seconds.
        timeout: per-ping reply deadline.
        miss_threshold: consecutive missed deadlines before a target is
            suspected faulty.
        on_fault: callback(name, detection_time) -- typically the
            FaultNotifier's ``report`` method.
    """

    def __init__(self, orb, interval=0.1, timeout=None, miss_threshold=2,
                 on_fault=None):
        self.orb = orb
        self.ep = orb.ep
        self._telemetry = self.ep.telemetry
        self.interval = interval
        self.timeout = timeout if timeout is not None else interval
        self.miss_threshold = miss_threshold
        self.on_fault = on_fault or (lambda name, when: None)
        self.targets = {}
        self.running = False

    def monitor(self, name, ior):
        """Start monitoring an endpoint (idempotent per name)."""
        target = MonitoredTarget(name, ior)
        self.targets[name] = target
        if self.running:
            self._arm(target)
        return self

    def forget(self, name):
        # The target's timer chain notices the removal at its next firing
        # and lapses; nothing to cancel.
        self.targets.pop(name, None)

    def start(self):
        if not self.running:
            self.running = True
            for target in self.targets.values():
                self._arm(target)
        return self

    def stop(self):
        self.running = False

    def _arm(self, target):
        """(Re)start a target's timer chain if none is live."""
        if target.armed:
            return
        target.armed = True
        target.next_ping = self.ep.now
        self._schedule(target)

    def _schedule(self, target):
        due = target.next_ping
        if target.pending is not None:
            due = min(due, target.deadline)
        self.ep.timer(
            max(due - self.ep.now, 0.0),
            lambda: self._fire(target),
            "ftdet.sched",
        )

    def _fire(self, target):
        if not self.running or self.targets.get(target.name) is not target:
            target.armed = False
            return
        now = self.ep.now
        if target.pending is not None and now >= target.deadline - 1e-9:
            self._expire(target)
        if now >= target.next_ping - 1e-9:
            if not target.suspected and target.pending is None:
                self._ping(target)
            target.next_ping = now + self.interval
        self._schedule(target)

    def _expire(self, target):
        """Deadline passed with no reply: withdraw the ping, count a miss."""
        future, target.pending = target.pending, None
        self.orb.forget_pending(future.request_id)
        future.set_exception(
            TimeoutError_("heartbeat to %s after %.3fs"
                          % (target.name, self.timeout))
        )

    def _ping(self, target):
        future = self._invoke_target(target)
        target.pending = future
        sent = self.ep.now
        target.deadline = sent + self.timeout

        def complete(fut):
            target.pending = None
            if fut.exception() is None and self._reply_ok(fut.result()):
                target.misses = 0
                target.last_ok = self.ep.now
                self._telemetry.metrics.histogram("ftdet.rtt").record(
                    self.ep.now - sent, at=self.ep.now)
                self._on_reply_ok(target, fut, sent)
            else:
                target.misses += 1
                self.ep.emit("ftdet.miss", {"target": target.name,
                                            "misses": target.misses})
                self._on_reply_failed(target, fut, sent)
                if target.misses >= self.miss_threshold and not target.suspected:
                    target.suspected = True
                    self.ep.emit("ftdet.suspect", {"target": target.name})
                    self.on_fault(target.name, self.ep.now)

        future.add_done_callback(complete)

    # -- Extension points ------------------------------------------------
    # Subclasses reuse the timer chain, deadline withdrawal, miss
    # accounting, and RTT histogram for other periodic request/response
    # protocols (e.g. read-lease renewal in repro.replication.leases) by
    # overriding what is sent, what counts as success, and what a
    # successful round means.

    def _invoke_target(self, target):
        """Issue one probe invocation; returns the reply future."""
        return self.orb.invoke(target.ior, "is_alive", (), timeout=0)

    def _reply_ok(self, result):
        """Whether a reply value counts as a successful round."""
        return result is True

    def _on_reply_ok(self, target, future, sent_time):
        """Hook: a probe succeeded (``sent_time`` is when it left)."""

    def _on_reply_failed(self, target, future, sent_time):
        """Hook: a probe missed its deadline or returned a failure."""

    def suspected(self):
        """Names currently suspected faulty."""
        return [t.name for t in self.targets.values() if t.suspected]


class HierarchicalFaultDetector:
    """Two-level detection: per-host local detectors, one global aggregator.

    FT-CORBA structures fault detection hierarchically so the global
    detector's load is independent of the object count: a local detector
    on each host monitors the objects *on that host* cheaply (here: the
    host's own liveness plus its monitorables), while the global detector
    only heartbeats the local detectors.  A local detector that goes
    silent implicates its whole host.

    This class is the global tier; it monitors one
    :class:`PullMonitorable` per host and translates a missed host into
    fault reports for every object registered under it.
    """

    def __init__(self, orb, interval=0.1, timeout=None, miss_threshold=2,
                 on_fault=None):
        self.on_fault = on_fault or (lambda name, when: None)
        self._host_objects = {}
        self._detector = HeartbeatFaultDetector(
            orb, interval=interval, timeout=timeout,
            miss_threshold=miss_threshold, on_fault=self._host_down,
        )

    def monitor_host(self, host, monitorable_ior, objects=()):
        """Monitor a host's local detector; ``objects`` live on that host."""
        self._host_objects[host] = list(objects)
        self._detector.monitor(host, monitorable_ior)
        return self

    def register_object(self, host, object_name):
        """Record that an object lives on a monitored host."""
        self._host_objects.setdefault(host, []).append(object_name)

    def start(self):
        self._detector.start()
        return self

    def stop(self):
        self._detector.stop()

    def suspected_hosts(self):
        return self._detector.suspected()

    def _host_down(self, host, when):
        # The host itself is reported first, then each object on it --
        # the fan-out the hierarchy buys without per-object heartbeats.
        self.on_fault(host, when)
        for object_name in self._host_objects.get(host, ()):
            self.on_fault("%s@%s" % (object_name, host), when)
