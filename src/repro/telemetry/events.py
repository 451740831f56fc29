"""The typed event taxonomy: every trace category the stack may emit.

Historically each layer invented free-form category strings at its
``emit()`` call sites, and a misspelled category silently created a new
counter (the state-chunk error path shipped that way).  This module is
the single authoritative registry: every category carries the set of
detail keys its emitters may attach, and ``tests/test_telemetry_registry``
statically walks every ``emit()`` call site in ``src/`` and fails on a
category that is not registered here.

Call sites keep their literal strings (they stay greppable); the registry
adds a name space, documentation, and -- through the lint test and the
optional strict mode of :class:`~repro.simnet.trace.TraceLog` -- a
guarantee that the strings are spelled consistently.
"""


class EventCategory:
    """One registered trace category."""

    __slots__ = ("name", "keys", "doc")

    def __init__(self, name, keys, doc):
        self.name = name
        self.keys = frozenset(keys)
        self.doc = doc

    def __repr__(self):
        return "EventCategory(%s, keys=%s)" % (self.name, sorted(self.keys))


_REGISTRY = {}


def register_category(name, keys=(), doc=""):
    """Register one event category; idempotent re-registration must match."""
    existing = _REGISTRY.get(name)
    if existing is not None:
        if existing.keys != frozenset(keys):
            raise ValueError("category %r re-registered with different keys" % name)
        return existing
    category = EventCategory(name, keys, doc)
    _REGISTRY[name] = category
    return category


def is_registered(name):
    return name in _REGISTRY


def category(name):
    """Look up a registered category; raises KeyError when unknown."""
    return _REGISTRY[name]


def registered_categories():
    """All registered category names, sorted."""
    return sorted(_REGISTRY)


def validate(name, detail=None):
    """Check an emission against the registry.

    Raises ``KeyError`` for an unregistered category and ``ValueError``
    when the detail dict carries keys the category did not declare.
    Used by ``TraceLog(strict=True)`` in the telemetry tests; production
    emits skip this (the lint test enforces the same property statically).
    """
    registered = _REGISTRY.get(name)
    if registered is None:
        raise KeyError("unregistered trace category %r" % name)
    if detail:
        unknown = set(detail) - registered.keys
        if unknown:
            raise ValueError(
                "category %r emitted with undeclared detail keys %s"
                % (name, sorted(unknown)))


#: Span mark points of one replicated invocation, in causal order.  The
#: layer attribution (see :mod:`repro.telemetry.spans`) is the interval
#: between consecutive points.
SPAN_POINTS = ("intercept", "enqueue", "sent", "delivered", "executed", "reply")


# ---------------------------------------------------------------------------
# Taxonomy.  Grouped by emitting layer, bottom-up.
# ---------------------------------------------------------------------------

# simnet / runtime network events
register_category("net.send", ("src", "dst", "port"), "unicast datagram sent")
register_category("net.broadcast", ("src", "port"), "broadcast datagram sent")
register_category("net.deliver", ("src", "dst", "port"), "datagram delivered")
register_category("net.drop.unreachable", ("src", "dst"),
                  "drop: destination outside sender's partition component")
register_category("net.drop.loss", ("src", "dst"), "drop: seeded random loss")
register_category("net.drop.inflight", ("src", "dst"),
                  "drop: receiver crashed while the datagram was in flight")
register_category("net.drop.unknown_peer", ("addr",),
                  "drop: datagram from an unregistered address (real sockets)")
register_category("net.drop.malformed", ("src",),
                  "drop: undecodable datagram framing (real sockets)")
register_category("net.error", ("error",), "socket error (real sockets)")
register_category("net.partition", ("components",), "partition imposed")
register_category("net.merge", (), "partition healed")

# node lifecycle
register_category("node.crash", ("node",), "node crashed")
register_category("node.recover", ("node",), "node recovered")
register_category("node.drop.unbound", ("node", "port"),
                  "datagram for a port with no bound handler")

# TCP-like ORB transport
register_category("tcp.segment.tcp-syn", ("src", "dst"), "SYN transmitted")
register_category("tcp.segment.tcp-syn-ack", ("src", "dst"), "SYN-ACK transmitted")
register_category("tcp.segment.tcp-data", ("src", "dst"), "DATA transmitted")
register_category("tcp.segment.tcp-ack", ("src", "dst"), "ACK transmitted")
register_category("tcp.segment.tcp-fin", ("src", "dst"), "FIN transmitted")
register_category("tcp.retransmit", ("conn", "seq"), "data segment retransmitted")
register_category("tcp.syn.retransmit", ("conn",), "SYN retransmitted")
register_category("tcp.fail", ("conn",), "connection declared failed")
register_category("tcp.wire.error", ("node",), "undecodable TCP segment frame")

# ORB core / POA
register_category("orb.invoke", ("op", "node"), "client invocation issued")
register_category("orb.forwarded", ("op",),
                  "invocation re-issued after LOCATION_FORWARD")
register_category("orb.profile.failover", ("from", "remaining"),
                  "IIOP profile failed; trying the next profile")
register_category("orb.dispatch.error", ("op", "error"),
                  "servant raised during dispatch")

# Totem ordering protocol.  ``ring_id`` on these categories is the shard
# ring the emitting processor belongs to (0 in single-ring topologies),
# enabling per-ring traffic and latency attribution.
register_category("totem.deliver", ("node", "seq", "ring_id"),
                  "message delivered in order")
register_category("totem.data.stored", ("node", "seq", "ring_id"),
                  "new data message stored")
register_category("totem.batch", ("node", "n", "ring_id"),
                  "several queued messages coalesced into one batch frame")
register_category("totem.token.retransmit", ("node", "ring_id"),
                  "token retransmitted")
register_category("totem.token.lost", ("node", "ring_id"),
                  "token loss timeout fired")
register_category("totem.token.hold", ("node", "ring_id"),
                  "representative parked the token of an idle ring")
register_category("totem.token.hold_cancel", ("node", "ring_id"),
                  "member with something to send asked for the parked "
                  "token (one unicast frame to the representative)")
register_category("totem.foreign", ("node", "src", "ring_id"),
                  "traffic from a foreign ring observed (merge trigger)")
register_category("totem.gather", ("node", "reason", "ring_id"),
                  "membership gather entered")
register_category("totem.fail_set", ("node", "failed", "ring_id"),
                  "silent processors moved to the fail set")
register_category("totem.consensus", ("node", "ring", "ring_id"),
                  "membership consensus reached")
register_category("totem.commit.timeout", ("node", "ring_id"),
                  "commit phase timed out")
register_category("totem.commit.retransmit", ("node", "ring_id"),
                  "commit token retransmitted")
register_category("totem.recovery.enter", ("node", "ring", "ring_id"),
                  "recovery phase entered")
register_category("totem.recovery.request", ("node", "n", "ring_id"),
                  "recovery retransmission requested")
register_category("totem.install", ("node", "ring", "ring_id"),
                  "new ring installed")
register_category("totem.wire.error", ("node", "error"),
                  "undecodable Totem frame")
register_category("totem.ring.mismatch", ("node", "ring_id", "src"),
                  "datagram for a shard ring this node does not run dropped")

# Replication engine (interception + mechanisms + recovery)
register_category("ft.host", ("group", "node", "style", "ready"), "replica hosted")
register_category("ft.request.sent", ("group", "node"), "group request multicast")
register_category("ft.request.retry", ("op", "attempt"),
                  "unanswered request re-multicast")
register_category("ft.request.duplicate", ("group",),
                  "redundant invocation suppressed at the receiver")
register_category("ft.request.suppressed_at_sender", ("op",),
                  "request send skipped: a peer already multicast it")
register_category("ft.request.cancelled_queued", ("op",),
                  "queued duplicate request withdrawn before broadcast")
register_category("ft.reply.sent", ("group", "node"), "group reply multicast")
register_category("ft.reply.suppressed_at_sender", ("group",),
                  "reply send skipped: already delivered from a peer")
register_category("ft.reply.suppressed_follower", ("group",),
                  "semi-active follower suppressed its reply")
register_category("ft.reply.cancelled_queued", ("group",),
                  "queued duplicate reply withdrawn before broadcast")
register_category("ft.suppress.request", ("group",),
                  "duplicate-table request suppression counted")
register_category("ft.suppress.reply", ("group",),
                  "duplicate-table reply suppression counted")
register_category("ft.op.executed", ("group", "node"), "operation executed")
register_category("ft.external.request", ("group", "leader"),
                  "external (unreplicated-target) invocation requested")
register_category("ft.external.reissue", ("group",),
                  "new leader re-issued an open external invocation")
register_category("ft.view", ("group", "members"), "group membership view")
register_category("ft.failover", ("group", "node"),
                  "this node became the passive primary")
register_category("ft.state.update.sent", ("group",), "warm-passive state pushed")
register_category("ft.state.update.applied", ("group", "node"),
                  "warm-passive state applied")
register_category("ft.state.update.stale", ("group", "node"),
                  "non-contiguous passive update discarded")
register_category("ft.resync.requested", ("group", "node"),
                  "backup asked the primary for a capture after an update gap")
register_category("ft.resync.sent", ("group", "bytes"),
                  "primary sent a resync capture to a gapped backup")
register_category("ft.resync.adopted", ("group", "node", "fulfillment"),
                  "gapped backup adopted the primary's resync capture")
register_category("ft.policy.sent", ("group", "changes"),
                  "totally-ordered group policy update multicast")
register_category("ft.policy.applied", ("group", "node", "style", "changes"),
                  "policy update applied at its delivery position")
register_category("ft.policy.replay", ("group", "node", "n"),
                  "newly-executing replica covered its pending requests")
register_category("ft.state.update.image.sent", ("group",),
                  "warm-passive update image pushed")
register_category("ft.state.update.image.applied", ("group", "node"),
                  "warm-passive update image applied")
register_category("ft.checkpoint.sent", ("group",), "cold-passive checkpoint pushed")
register_category("ft.checkpoint.applied", ("group", "node"),
                  "cold-passive checkpoint applied")
register_category("ft.state.full.sent", ("group", "bytes"),
                  "sponsor sent a full state capture")
register_category("ft.state.chunk.error", ("node", "group", "sponsor"),
                  "undecodable incremental state chunk")
register_category("ft.state.chunk.incomplete", ("group",),
                  "state end delivered with chunks missing")
register_category("ft.replica.ready", ("group", "node", "replay"),
                  "joining replica became ready")
register_category("ft.merge.stall", ("group", "node"),
                  "remerge barrier armed: requests buffered")
register_category("ft.merge.adopted", ("group", "node", "fulfillment"),
                  "secondary side adopted the primary side's capture")
register_category("ft.merge.reconciled.sent", ("group", "node"),
                  "reconciliation marker multicast")
register_category("ft.merge.reconciled.stale", ("group", "node"),
                  "reconciliation marker from another merge round ignored")
register_category("ft.merge.push.refused", ("group", "node", "kind"),
                  "stalled replica refused a pre-merge state push from the "
                  "other component")
register_category("ft.merge.stall.released", ("group", "node", "reason", "replay"),
                  "remerge barrier released")
register_category("ft.fulfillment.sent", ("group",),
                  "divergent operation re-issued as a fulfillment request")
register_category("ft.op.aborted", ("group", "node"),
                  "suspended operation superseded by adopted state")

# Fault management plane
register_category("ftdet.miss", ("target", "misses"), "heartbeat deadline missed")
register_category("ftdet.suspect", ("target",), "target suspected faulty")
register_category("ftnotify.report", ("target", "kind"), "fault report published")
register_category("ftrecover.placement", ("group", "node"),
                  "replacement replica placed on a spare")

# Gateway
register_category("gateway.forward", ("key", "op"),
                  "plain-IIOP request re-issued as a group invocation")
register_category("gateway.export.replaced", ("key",),
                  "an exported object key was overwritten by a new export")

# Chaos campaigns (repro.chaos + the simnet chaos overlay).  ``target``
# is the repr of the affected node / components so partition component
# lists stay JSON- and registry-friendly.
register_category("chaos.inject", ("kind", "target", "param"),
                  "one scheduled fault event applied to the network")
register_category("chaos.net.loss", ("rate",),
                  "chaos overlay: extra per-message loss set (0 clears)")
register_category("chaos.net.latency", ("extra",),
                  "chaos overlay: extra delivery latency set (0 clears)")
register_category("chaos.net.slow", ("node", "delay"),
                  "chaos overlay: slow-node delivery delay set (0 clears)")
register_category("chaos.campaign.start", ("seed", "events"),
                  "a generated campaign schedule was armed")
register_category("chaos.campaign.end", ("seed",),
                  "every event of an armed campaign has been applied")
register_category("chaos.process.signal", ("node", "signal"),
                  "process-level injector signalled a live node process")
register_category("chaos.process.respawn", ("node",),
                  "process-level injector restarted a killed node process")

# Local read path (repro.replication.reads + repro.replication.leases).
register_category("read.local", ("group", "node", "mode", "lag"),
                  "declared read served locally without a token round")
register_category("read.route", ("group", "node", "target", "mode"),
                  "read routed to a chosen eligible replica")
register_category("read.reject", ("group", "node", "mode", "reason"),
                  "local read refused by eligibility checks")
register_category("read.fallback", ("group", "op", "reason"),
                  "read fell back to the ordered (token) path")
register_category("read.lease", ("group", "node", "event", "holder"),
                  "read-lease lifecycle: granted/denied/acquired/lost")

# OLTP workload (repro.workloads.oltp): client-side traffic accounting.
register_category("oltp.request", ("service", "op"),
                  "one generated OLTP invocation departed")
register_category("oltp.reply", ("service", "op"),
                  "an OLTP invocation completed successfully")
register_category("oltp.rejected", ("service", "op", "error"),
                  "an OLTP invocation was rejected by application logic")
register_category("oltp.failed", ("service", "op", "error"),
                  "an OLTP invocation failed with a system error")

# Adaptation controller (repro.adaptation): every decision attributable.
register_category("adapt.start", ("groups", "interval"),
                  "adaptation controller began governing groups")
register_category("adapt.stop", (),
                  "adaptation controller stopped")
register_category("adapt.action", ("group", "lever", "action", "evidence",
                                   "cooldown"),
                  "an adaptation action was taken, with its evidence and "
                  "the cool-down state that allowed it")
register_category("adapt.suppressed", ("group", "lever", "action", "reason",
                                       "evidence"),
                  "a desired adaptation was withheld (cooldown/dwell/"
                  "unactionable)")
register_category("adapt.error", ("group", "lever", "error"),
                  "an adaptation actuator raised; the loop continues")
