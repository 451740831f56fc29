"""The Totem single-ring protocol state machine.

One :class:`TotemProcessor` runs per simulated node.  It provides reliable,
totally-ordered multicast with agreed and safe delivery guarantees, ring
membership with failure detection, and extended-virtual-synchrony
configuration changes across partitions and remerges.

State machine (mirrors the Totem membership protocol's phases):

- ``operational``: a ring is installed; the token circulates; messages are
  broadcast when the token is held and delivered in sequence order.
- ``gather``: the processor is building consensus on a new membership by
  exchanging Join messages.
- ``commit``: consensus reached; the Commit token is collecting each
  member's record of what it holds from its previous ring.
- ``recovery``: members exchange old-ring messages they are missing; when
  everyone announces completion the new ring is installed, delivering the
  transitional and regular configuration events.
"""

from repro.runtime.sim import endpoint_of
from repro.totem.config import RetransmitBudgetExceeded, TotemConfig
from repro.totem.events import (
    DeliveredMessage,
    RegularConfiguration,
    TransitionalConfiguration,
)
from repro.totem.messages import (
    CommitToken,
    DataMessage,
    EagerData,
    JoinMessage,
    MemberInfo,
    OrderStub,
    RecoveryDone,
    RecoveryRequest,
    RingBeacon,
    RingId,
    Token,
)
from repro.totem.ringmux import PORT, datagram_ring
from repro.wire.codec import decode_payload
from repro.wire.codec import encode as wire_encode
from repro.wire.framing import WireFormatError, encode_batch

# Join damping (see ``_broadcast_join``): Join sends per gather phase
# before damping engages; minimum seconds between damped sends; every Nth
# damped send is still a broadcast (merge/discovery traffic).
JOIN_BURST = 16
JOIN_MIN_SPACING = 2.5e-3
JOIN_DISCOVERY_PERIOD = 4


class _RingStore:
    """Per-ring message store and delivery bookkeeping."""

    def __init__(self, ring):
        self.ring = ring
        self.received = {}
        self.my_aru = 0          # all messages 1..my_aru received
        self.high_seq = 0        # highest sequence number seen
        self.safe_seq = 0        # all members known to have 1..safe_seq
        self.delivered_upto = 0  # delivery pointer
        # seq -> encoded retransmit frame: a message re-broadcast in
        # answer to rtr/recovery requests is encoded once and the bytes
        # reused for every further request (encode-once contract).
        self.retransmit_cache = {}

    def insert(self, msg):
        """Store a message; returns True if it was new."""
        if msg.seq in self.received or msg.seq <= self.my_aru:
            return False
        self.received[msg.seq] = msg
        if msg.seq > self.high_seq:
            self.high_seq = msg.seq
        while (self.my_aru + 1) in self.received:
            self.my_aru += 1
        return True

    def has(self, seq):
        return seq <= self.my_aru or seq in self.received

    def have_list(self):
        """Non-contiguous sequence numbers held beyond my_aru."""
        return sorted(s for s in self.received if s > self.my_aru)

    def collect_garbage(self):
        """Drop messages every member is known to have and we delivered."""
        limit = min(self.safe_seq, self.delivered_upto)
        for seq in [s for s in self.received if s <= limit]:
            del self.received[seq]
        if self.retransmit_cache:
            for seq in [s for s in self.retransmit_cache if s <= limit]:
                del self.retransmit_cache[seq]


class TotemProcessor:
    """Totem protocol endpoint on one node.

    Args:
        network: a runtime :class:`~repro.runtime.base.Endpoint`, or (the
            legacy pair form) the :class:`~repro.simnet.Network` to run
            over with ``node`` as the hosting node.
        node: the :class:`~repro.simnet.Node` when ``network`` is a
            simnet Network; None when an endpoint is given.
        config: protocol timers; defaults to :class:`TotemConfig()`.
        on_deliver: callback(:class:`DeliveredMessage`).
        on_config: callback(RegularConfiguration | TransitionalConfiguration).
        ring_id: the shard ring this processor belongs to.  The id is
            stamped on every outbound wire frame and inbound frames for
            other rings are dropped, so independent rings sharing the
            broadcast medium never cross-talk.
        mux: a :class:`~repro.totem.ringmux.RingMux` when several rings
            co-host one endpoint; None (the default) binds the Totem
            port directly.
    """

    def __init__(self, network, node=None, config=None, on_deliver=None,
                 on_config=None, ring_id=0, mux=None):
        self.ep = endpoint_of(network, node)
        self._telemetry = self.ep.telemetry
        self.config = config if config is not None else TotemConfig()
        self.on_deliver = on_deliver or (lambda msg: None)
        self.on_config = on_config or (lambda event: None)
        self.node_id = self.ep.node_id
        self.ring_id = ring_id
        self._mux = mux
        self.state = "down"
        # Exact-type handler table: dispatch is one dict hit instead of a
        # seven-way isinstance chain (message classes are final).
        self._handlers = {
            DataMessage: self._handle_data,
            Token: self._handle_token,
            JoinMessage: self._handle_join,
            CommitToken: self._handle_commit,
            RecoveryRequest: self._handle_recovery_request,
            RecoveryDone: self._handle_recovery_done,
            RingBeacon: self._handle_beacon,
            EagerData: self._handle_eager,
            OrderStub: self._handle_order_stub,
        }
        self._counters = {}
        # Eager-dissemination ids are never reset: uniqueness per sender
        # must survive ring changes so stale buffers cannot alias.
        self._eager_next_id = 0
        self._reset_state()
        if mux is not None:
            mux.register(ring_id, self._on_frames)
        else:
            self.ep.bind(PORT, self._on_message)
        self.ep.on_crash(lambda _n: self._on_crash())
        self.ep.on_recover(lambda _n: self.start())

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def start(self):
        """Boot the processor: begin forming a ring."""
        self._reset_state()
        if self._mux is not None:
            self._mux.ensure_bound()
        else:
            self.ep.bind(PORT, self._on_message)
        self._enter_gather("boot")

    def send(self, payload, size=64, guarantee="agreed", span=None):
        """Queue ``payload`` for totally-ordered multicast.

        Messages are broadcast at the next token visit (or, if a membership
        change is in progress, on the next installed ring).  ``guarantee``
        selects agreed or safe delivery.  ``span`` optionally names the
        telemetry span of the invocation this message carries; the span's
        ``enqueue`` point is stamped here and the id rides the wire so
        ``sent``/``delivered`` are stamped where those events happen.
        """
        if guarantee not in ("agreed", "safe"):
            raise ValueError("guarantee must be 'agreed' or 'safe'")
        if self.config.pipelining:
            # Pipelined data path: disseminate the payload bytes NOW, so
            # serialization and transit overlap the wait for the token;
            # the token visit later settles the order with a tiny stub.
            # Queue entries carry the (ring, eager_id) the payload was
            # disseminated under -- None falls back to a full frame.
            eager = None
            if self.state == "operational":
                self._eager_next_id += 1
                eager_msg = EagerData(self.ring, self.node_id,
                                      self._eager_next_id, payload, size,
                                      guarantee, span=span)
                data = wire_encode(eager_msg, ring=self.ring_id)
                self.ep.broadcast(PORT, data, size=len(data),
                                  include_self=False)
                self._count("totem.pipeline.eager")
                eager = (self.ring, self._eager_next_id)
            self.send_queue.append((payload, size, guarantee, span, eager))
        else:
            self.send_queue.append((payload, size, guarantee, span))
        if span is not None:
            self._telemetry.span_mark(span, "enqueue", self.ep.now)
        self._unpark_token()

    def cancel_queued(self, predicate):
        """Remove not-yet-broadcast messages whose payload matches.

        Used for sender-side duplicate suppression: a replica that learns a
        peer already multicast the same logical operation withdraws its own
        copy if it is still waiting for the token.  Returns the number of
        messages removed.
        """
        kept = []
        removed = 0
        for entry in self.send_queue:
            if predicate(entry[0]):
                removed += 1
            else:
                kept.append(entry)
        self.send_queue = kept
        return removed

    @property
    def installed_ring(self):
        """The currently installed :class:`RingId`, or None."""
        return self.ring if self.state == "operational" else None

    @property
    def queue_depth(self):
        """Messages waiting for a token visit."""
        return len(self.send_queue)

    # ------------------------------------------------------------------
    # State reset / crash handling
    # ------------------------------------------------------------------

    def _reset_state(self):
        self.ring = None
        self.store = None
        self.send_queue = []
        self.max_ring_seq = 0
        self.last_token_id = 0
        # Token retransmission bookkeeping.
        self._parked_token = None
        self._token_retransmits = 0
        self._progress_seen = False
        self._retransmit_timer = None
        self._loss_timer = None
        self._beacon_timer = None
        self._beacon_cache = None
        # Pipelining: sequence gaps seen at the previous token visit (a
        # first-seen gap gets one visit of grace before it becomes an
        # rtr entry -- in-flight data may still be arriving).
        self._rtr_pending = set()
        # Eager dissemination: payloads received ahead of their sequence
        # numbers, and stub entries whose payload has not arrived yet.
        self._eager_buffer = {}    # (sender, eager_id) -> EagerData
        self._pending_stubs = {}   # seq -> (sender, eager_id)
        # Membership state.
        self.proc_set = set()
        self.fail_set = set()
        self.joins = {}
        self._singleton_allowed = False
        self._join_timer = None
        self._consensus_timer = None
        # Join damping / encode-once bookkeeping (per gather phase).
        self._join_sends = 0
        self._join_damped_sends = 0
        self._last_join_time = None
        self._join_deferred = None
        self._join_cache = None
        # Commit / recovery state.
        self.pending_ring = None
        self.pending_store = None
        self._consensus_fail_set = frozenset()
        self._commit_sent = None
        self._commit_retransmits = 0
        self._commit_progress = False
        self._commit_timer = None
        self._commit_retry_timer = None
        self._last_commit_hop = {}
        self._recovery_infos = {}
        self._recovery_required = set()
        self._recovery_attempts = 0
        self._recovery_timer = None
        self._done_received = {}
        self._stashed_token = None
        self._old_store = None

    def _cancel_timers(self):
        for timer in (
            self._beacon_timer,
            self._retransmit_timer,
            self._loss_timer,
            self._join_timer,
            self._consensus_timer,
            self._commit_timer,
            self._commit_retry_timer,
            self._recovery_timer,
            self._join_deferred,
        ):
            if timer is not None:
                timer.cancel()
        self._join_deferred = None
        self._retransmit_timer = None
        self._loss_timer = None
        self._beacon_timer = None
        self._join_timer = None
        self._consensus_timer = None
        self._commit_timer = None
        self._commit_retry_timer = None
        self._recovery_timer = None

    def _on_crash(self):
        self._cancel_timers()
        self.state = "down"

    # ------------------------------------------------------------------
    # Message dispatch
    # ------------------------------------------------------------------

    def _on_message(self, src, payload, size):
        """Direct-bind entry point: filter foreign-ring frames, then decode.

        The mux performs this same routing for co-hosted rings; here it
        protects a single-ring node from traffic of rings it does not run
        (broadcast reaches every node).
        """
        ring = datagram_ring(self.ep, payload)
        if ring is None:
            return
        if ring != self.ring_id:
            self.ep.emit(
                "totem.ring.mismatch",
                {"node": self.node_id, "ring_id": ring, "src": src},
            )
            return
        self._on_frames(src, payload, size)

    def _on_frames(self, src, payload, size):
        """Decode a datagram already routed to this ring and dispatch each
        message -- a batch frame carries several."""
        if self.state == "down":
            return
        try:
            messages = decode_payload(payload)
        except WireFormatError as err:
            self.ep.emit(
                "totem.wire.error",
                {"node": self.node_id, "error": str(err)},
            )
            return
        for message in messages:
            if self.state == "down":
                break
            handler = self._handlers.get(type(message))
            if handler is not None:
                handler(src, message)

    def _count(self, name, n=1):
        """Bump a telemetry counter, caching the metric object per name."""
        counter = self._counters.get(name)
        if counter is None:
            counter = self._telemetry.metrics.counter(name)
            self._counters[name] = counter
        counter.inc(n)

    def _broadcast(self, message):
        """Encode one protocol message and broadcast the frame."""
        data = wire_encode(message, ring=self.ring_id)
        self.ep.broadcast(PORT, data, size=len(data))

    def _charge_retransmit(self):
        """Count one retransmission against the run's shared budget.

        Every data rebroadcast and token/commit resend funnels through
        here; the ``totem.retransmit.budget`` counter is runtime-wide, so
        it totals the whole domain's retransmission spend.  With
        ``config.retransmit_budget`` set, passing the cap raises
        :class:`~repro.totem.config.RetransmitBudgetExceeded` -- the
        guard that turns a retransmission storm into a prompt failure.
        """
        spent = self._telemetry.metrics.counter(
            "totem.retransmit.budget").inc()
        budget = self.config.retransmit_budget
        if budget is not None and spent > budget:
            raise RetransmitBudgetExceeded(
                "retransmission budget exhausted: %d > %d (node %s, ring %s)"
                % (spent, budget, self.node_id, self.ring_id))

    def _rebroadcast(self, store, msg):
        """Re-broadcast a stored message in answer to an rtr/recovery
        request, reusing the cached retransmit encoding when one exists
        (the bytes are receiver-independent, so each sequence number is
        encoded at most once per store no matter how often it is
        re-requested)."""
        data = store.retransmit_cache.get(msg.seq) if store is not None else None
        if data is None:
            data = wire_encode(msg.copy_for_retransmit(), ring=self.ring_id)
            if store is not None:
                store.retransmit_cache[msg.seq] = data
        else:
            self._count("wire.encode.cached")
        self.ep.broadcast(PORT, data, size=len(data))

    # ------------------------------------------------------------------
    # Operational phase: data messages
    # ------------------------------------------------------------------

    def _handle_data(self, src, msg):
        if self.state == "operational" and msg.ring == self.ring:
            self._note_progress()
            # A self-contained copy supersedes any stub still waiting for
            # its eagerly-disseminated payload (rtr recovery path).
            self._pending_stubs.pop(msg.seq, None)
            if self.store.insert(msg):
                self.ep.emit(
                    "totem.data.stored",
                    {"node": self.node_id, "seq": msg.seq, "ring_id": self.ring_id},
                )
            self._try_deliver(self.store)
            return
        if self.state == "recovery":
            if self.pending_ring is not None and msg.ring == self.pending_ring:
                # A peer already installed the new ring and is sending on it;
                # buffer in the pending store, deliver after our install.
                self.pending_store.insert(msg)
                self._note_commit_progress()
                return
            if self._old_store is not None and msg.ring.key() == self._old_store.ring.key():
                # Recovery retransmission of an old-ring message.
                self._note_commit_progress()
                if self._old_store.insert(msg):
                    self._check_recovery_done()
                return
        if self.ring is not None and msg.ring.key() == self.ring.key():
            # Old-ring message while gathering/committing: still useful.
            if self.store is not None and self.store.insert(msg):
                self._try_deliver(self.store)
            return
        self._consider_foreign(src, msg.ring)

    def _consider_foreign(self, src, ring):
        """A message from a ring we are not part of: possible merge."""
        if self.ring is not None and src in self.ring.members and ring.seq <= self.ring.seq:
            return  # stale straggler from a past configuration of our own
        if self.state in ("commit", "recovery") and self.pending_ring is not None:
            if src in self.pending_ring.members:
                return  # traffic from the configuration change in progress
        self.max_ring_seq = max(self.max_ring_seq, ring.seq)
        if self.state == "gather":
            if src not in self.proc_set:
                self.proc_set.add(src)
                self._membership_changed()
            return
        self.ep.emit(
            "totem.foreign",
            {"node": self.node_id, "src": src, "ring_id": self.ring_id},
        )
        self._enter_gather("foreign traffic", extra_procs=(src,))

    def _try_deliver(self, store, installed=True):
        """Advance the delivery pointer in strict sequence order."""
        if not installed:
            return
        while True:
            seq = store.delivered_upto + 1
            msg = store.received.get(seq)
            if msg is None:
                break
            if msg.guarantee == "safe" and seq > store.safe_seq:
                break
            store.delivered_upto = seq
            self._deliver(msg, transitional=False)

    def _deliver(self, msg, transitional):
        if msg.span is not None:
            self._telemetry.span_mark(msg.span, "delivered", self.ep.now)
        self.ep.emit(
            "totem.deliver",
            {"node": self.node_id, "seq": msg.seq, "ring_id": self.ring_id},
        )
        self.on_deliver(
            DeliveredMessage(
                msg.sender, msg.payload, msg.size, msg.ring.key(), msg.seq,
                msg.guarantee, transitional,
            )
        )

    # ------------------------------------------------------------------
    # Operational phase: eager dissemination (pipelined data path)
    # ------------------------------------------------------------------

    def _eager_store(self, seq, eager):
        """Sequence an eagerly-received payload into the ring store."""
        msg = DataMessage(eager.ring, seq, eager.sender, eager.payload,
                          eager.size, eager.guarantee, span=eager.span)
        if self.store.insert(msg):
            self.ep.emit(
                "totem.data.stored",
                {"node": self.node_id, "seq": seq, "ring_id": self.ring_id},
            )

    def _handle_eager(self, src, msg):
        if self.state != "operational" or msg.ring != self.ring:
            return
        self._note_progress()
        key = (msg.sender, msg.eager_id)
        # A stub may already be waiting on this payload (frame reorder or
        # a dropped-and-resent eager): complete it in place.
        for seq, pending in list(self._pending_stubs.items()):
            if pending == key:
                del self._pending_stubs[seq]
                self._eager_store(seq, msg)
                self._try_deliver(self.store)
                return
        self._eager_buffer[key] = msg
        # Orphans (cancelled duplicates, senders that died before their
        # token visit) must not accumulate: cap and evict oldest.
        cap = max(64, 4 * self.config.window)
        while len(self._eager_buffer) > cap:
            del self._eager_buffer[next(iter(self._eager_buffer))]

    def _handle_order_stub(self, src, stub):
        if self.state != "operational" or stub.ring != self.ring:
            return
        self._note_progress()
        store = self.store
        for seq, sender, eager_id in stub.entries:
            if store.has(seq):
                continue
            eager = self._eager_buffer.pop((sender, eager_id), None)
            if eager is None:
                # Payload still in flight (or lost): leave a sequence gap
                # for the rtr machinery and finish when it shows up.
                self._pending_stubs[seq] = (sender, eager_id)
                self._count("totem.pipeline.stub_wait")
                continue
            self._eager_store(seq, eager)
        self._try_deliver(store)

    # ------------------------------------------------------------------
    # Operational phase: the token
    # ------------------------------------------------------------------

    def _handle_token(self, src, token):
        if self.state == "recovery" and self.pending_ring is not None and token.ring == self.pending_ring:
            # New ring's token arrived before we finished recovery: stash it.
            self._stashed_token = token
            self._note_commit_progress()
            return
        if self.state != "operational" or token.ring != self.ring:
            if self.state == "operational" and token.ring != self.ring:
                self._consider_foreign(src, token.ring)
            return
        if token.token_id <= self.last_token_id:
            return  # duplicate from token retransmission
        self.last_token_id = token.token_id
        self._note_progress()
        store = self.store
        config = self.config

        # 1. Service retransmission requests we can satisfy.
        for seq in sorted(token.rtr):
            msg = store.received.get(seq)
            if msg is not None:
                self._charge_retransmit()
                self._rebroadcast(store, msg)
                token.rtr.discard(seq)

        if config.pipelining:
            self._pipelined_token_visit(token, store, config)
            return

        # 2. Broadcast queued messages, consuming sequence numbers.  Every
        # message of this token visit is coalesced into one framed batch:
        # one simnet event and one per-hop overhead instead of one of each
        # per message, bounded by the flow-control window.
        batch = []
        telemetry = self._telemetry
        while self.send_queue and len(batch) < config.window:
            payload, size, guarantee, span = self.send_queue.pop(0)
            token.seq += 1
            msg = DataMessage(self.ring, token.seq, self.node_id, payload, size,
                              guarantee, span=span)
            if span is not None:
                telemetry.span_mark(span, "sent", self.ep.now)
            batch.append(wire_encode(msg, ring=self.ring_id))
        if batch:
            data = (batch[0] if len(batch) == 1
                    else encode_batch(batch, ring=self.ring_id))
            if len(batch) > 1:
                self.ep.emit(
                    "totem.batch",
                    {"node": self.node_id, "n": len(batch), "ring_id": self.ring_id},
                    len(data),
                )
            self.ep.broadcast(PORT, data, size=len(data))

        # 3. Request retransmission of messages we are missing.
        for seq in range(store.my_aru + 1, token.seq + 1):
            if seq not in store.received:
                token.rtr.add(seq)

        # 4. Safe-delivery accounting: one full rotation of minimum arus.
        if self.node_id == self.ring.representative:
            token.safe_seq = max(token.safe_seq, token.rotation_min)
            token.rotation_min = store.my_aru
        else:
            token.rotation_min = min(token.rotation_min, store.my_aru)
        if token.safe_seq > store.safe_seq:
            store.safe_seq = token.safe_seq
            self._try_deliver(store)
            store.collect_garbage()

        # 5. Forward to the successor.
        self._forward_token(token)

    def _pipelined_token_visit(self, token, store, config):
        """One pipelined token visit: flush everything, data first.

        Ordering overlaps with delivery: the sender's own messages'
        sequence numbers are settled the moment they are drawn from the
        token, so they are inserted into the store (and agreed ones
        delivered) right here instead of waiting for the loopback
        self-delivery of the broadcast.  The *whole* send queue is
        flushed -- batching across invocations, not capped by the
        flow-control window (each broadcast datagram still carries at
        most ``window`` messages so real-socket MTU limits hold) -- then
        the token is released with zero hold.

        A sequence gap seen for the first time may still be in flight
        (drops, recovery edges): it gets one visit
        of grace before becoming an rtr entry.  That grace (plus the
        immediate self-insert) also removes the default path's spurious
        rebroadcast of every fresh message, where the sender's own seqs
        were never in its store when the rtr scan ran.
        """
        telemetry = self._telemetry
        base_seq = token.seq
        batch = []
        stub_entries = []
        fresh = []
        for _ in range(len(self.send_queue)):  # snapshot: deliveries enqueue
            payload, size, guarantee, span, eager = self.send_queue.pop(0)
            token.seq += 1
            msg = DataMessage(self.ring, token.seq, self.node_id, payload,
                              size, guarantee, span=span)
            if span is not None:
                telemetry.span_mark(span, "sent", self.ep.now)
            if eager is not None and eager[0] == self.ring:
                # Payload already disseminated on this ring: order it with
                # a stub entry instead of re-sending the bytes.
                stub_entries.append((token.seq, self.node_id, eager[1]))
            else:
                batch.append(wire_encode(msg, ring=self.ring_id))
            fresh.append(msg)

        # Request retransmission only of gaps that survived a full visit.
        missing = set()
        for seq in range(store.my_aru + 1, base_seq + 1):
            if seq not in store.received:
                missing.add(seq)
        for seq in missing & self._rtr_pending:
            token.rtr.add(seq)
        self._rtr_pending = missing - token.rtr

        # Our own messages are ordered now: store them before the token
        # leaves so rtr requests for them can be served next visit.
        for msg in fresh:
            store.insert(msg)

        # Safe-delivery accounting (same rule as the default path;
        # my_aru already includes the messages flushed this visit).
        if self.node_id == self.ring.representative:
            token.safe_seq = max(token.safe_seq, token.rotation_min)
            token.rotation_min = store.my_aru
        else:
            token.rotation_min = min(token.rotation_min, store.my_aru)
        if token.safe_seq > store.safe_seq:
            store.safe_seq = token.safe_seq

        # Data first, then the token: the broadcast frames reach every
        # receiver before the token finishes even one hop, so downstream
        # nodes hold the ordered messages by the time the token visits
        # them and can flush their own responses on the *same* rotation.
        # (Releasing the token first looks cheaper -- it never waits
        # behind payload serialization -- but then the token outruns its
        # data by a hop and every reply waits a full extra rotation.)
        # Stubs go out first: they are a few bytes and they complete the
        # eager payloads most receivers already buffered.
        window = max(1, config.window)
        if stub_entries:
            for start in range(0, len(stub_entries), window):
                chunk = stub_entries[start:start + window]
                data = wire_encode(OrderStub(self.ring, chunk),
                                   ring=self.ring_id)
                self.ep.broadcast(PORT, data, size=len(data),
                                  include_self=False)
            self._count("totem.pipeline.stub", len(stub_entries))
        if batch:
            for start in range(0, len(batch), window):
                chunk = batch[start:start + window]
                data = (chunk[0] if len(chunk) == 1
                        else encode_batch(chunk, ring=self.ring_id))
                if len(chunk) > 1:
                    self.ep.emit(
                        "totem.batch",
                        {"node": self.node_id, "n": len(chunk),
                         "ring_id": self.ring_id},
                        len(data),
                    )
                self.ep.broadcast(PORT, data, size=len(data),
                                  include_self=False)
        if fresh:
            self._count("totem.pipeline.flush")
            self._count("totem.pipeline.batched", len(fresh))
        self._forward_token(token)
        self._try_deliver(store)
        store.collect_garbage()

    def _forward_token(self, token):
        token.token_id += 1
        successor = self.ring.successor_of(self.node_id)
        self._token_retransmits = 0
        self._progress_seen = False
        ring = self.ring
        config = self.config
        if successor == self.node_id:
            self._park_singleton_token(ring, token)
            return
        # Encode once: the scheduled forward and any retransmissions all
        # send these same bytes, which are the snapshot of the token as it
        # left this visit.
        data = wire_encode(token, ring=self.ring_id)

        def forward():
            self.ep.send(successor, PORT, data, size=len(data))

        if config.pipelining:
            # Zero hold: the successor's visit overlaps our delivery work.
            forward()
        else:
            self.ep.timer(config.token_hold, forward, "token.forward")
        self._arm_token_retransmit(ring, successor, data)
        self._arm_loss_timer()

    def _park_singleton_token(self, ring, token):
        """On a singleton ring the token idles until there is work.

        Everything already broadcast becomes safe as soon as the loopback
        self-deliveries land, so schedule one flush and park the token;
        :meth:`send` wakes it up.
        """
        if self._loss_timer is not None:
            self._loss_timer.cancel()
            self._loss_timer = None
        self._parked_token = token
        seq_mark = token.seq

        def flush():
            if self.state == "operational" and self.ring == ring:
                store = self.store
                if seq_mark > store.safe_seq:
                    store.safe_seq = seq_mark
                    self._try_deliver(store)
                    store.collect_garbage()

        hold = 0.0 if self.config.pipelining else self.config.token_hold
        self.ep.timer(hold, flush, "token.singleton.flush")

    def _unpark_token(self):
        token = self._parked_token
        if token is None or self.state != "operational":
            return
        if len(self.ring.members) != 1:
            return
        self._parked_token = None
        self.ep.timer(0.0, lambda: self._handle_token(self.node_id, token), "token.unpark")

    def _arm_token_retransmit(self, ring, successor, data):
        if self._retransmit_timer is not None:
            self._retransmit_timer.cancel()

        def retransmit():
            if self.state != "operational" or self.ring != ring:
                return
            if self._progress_seen:
                return
            if self._token_retransmits >= self.config.token_retransmit_limit:
                return  # give up; the loss timer will trigger membership
            self._token_retransmits += 1
            self._charge_retransmit()
            self.ep.emit(
                "totem.token.retransmit",
                {"node": self.node_id, "ring_id": self.ring_id},
            )
            self._count("wire.encode.cached")
            self.ep.send(successor, PORT, data, size=len(data))
            self._retransmit_timer = self.ep.timer(
                self.config.token_retransmit_timeout, retransmit, "token.retry"
            )

        self._retransmit_timer = self.ep.timer(
            self.config.token_retransmit_timeout, retransmit, "token.retry"
        )

    def _arm_loss_timer(self):
        if self._loss_timer is not None:
            self._loss_timer.cancel()
        ring = self.ring

        def lost():
            if self.state == "operational" and self.ring == ring:
                self.ep.emit(
                    "totem.token.lost",
                    {"node": self.node_id, "ring_id": self.ring_id},
                )
                self._enter_gather("token loss")

        self._loss_timer = self.ep.timer(
            self.config.token_loss_timeout, lost, "token.loss"
        )

    def _note_progress(self):
        self._progress_seen = True
        self._arm_loss_timer()

    def _handle_beacon(self, src, beacon):
        if self.state == "operational" and beacon.ring == self.ring:
            return
        if self.state in ("gather", "commit", "recovery"):
            if self.pending_ring is not None and src in self.pending_ring.members:
                return
            if self.state == "gather":
                if src not in self.proc_set:
                    self.max_ring_seq = max(self.max_ring_seq, beacon.ring.seq)
                    self.proc_set.add(src)
                    self._membership_changed()
                return
            return
        self._consider_foreign(src, beacon.ring)

    def _arm_beacon_timer(self):
        """Periodic ring advertisement (merge detection), representative only."""
        if self._beacon_timer is not None:
            self._beacon_timer.cancel()
        ring = self.ring
        if ring is None or ring.representative != self.node_id:
            return

        def beat():
            if self.state != "operational" or self.ring != ring:
                return
            # Encode-once: the beacon is identical every beat of a ring.
            cached = self._beacon_cache
            if cached is not None and cached[0] == ring:
                data = cached[1]
                self._count("wire.encode.cached")
            else:
                data = wire_encode(
                    RingBeacon(ring, self.node_id), ring=self.ring_id)
                self._beacon_cache = (ring, data)
            self.ep.broadcast(PORT, data, size=len(data))
            self._arm_beacon_timer()

        self._beacon_timer = self.ep.timer(
            self.config.beacon_interval, beat, "beacon"
        )

    # ------------------------------------------------------------------
    # Gather phase: membership consensus
    # ------------------------------------------------------------------

    def _enter_gather(self, reason, extra_procs=()):
        self._cancel_timers()
        self.state = "gather"
        self.ep.emit(
            "totem.gather",
            {"node": self.node_id, "reason": reason, "ring_id": self.ring_id},
        )
        self.proc_set = {self.node_id} | set(extra_procs)
        if self.ring is not None:
            # Seed the candidate set with the previous ring's membership:
            # consensus then waits for every previous member's Join (or the
            # consensus timeout moving the silent to the fail set) instead
            # of installing a transient sub-ring that excludes slow members.
            self.proc_set |= set(self.ring.members)
            self.max_ring_seq = max(self.max_ring_seq, self.ring.seq)
        self.fail_set = set()
        self.joins = {}
        # Fresh damping budget: each gather phase may burst-broadcast
        # before pacing engages (quiet formations never exceed it).
        self._join_sends = 0
        self._join_damped_sends = 0
        self._last_join_time = None
        self.pending_ring = None
        self.pending_store = None
        self._stashed_token = None
        self._old_store = None
        self._parked_token = None
        # A singleton ring may only form after a full consensus timeout has
        # confirmed that nobody else is reachable; otherwise booting nodes
        # would each install a solo ring and immediately re-merge.
        self._singleton_allowed = False
        self._broadcast_join()
        self._arm_join_timer()
        self._arm_consensus_timer()
        self._check_consensus()

    def _own_join(self):
        return JoinMessage(self.node_id, self.proc_set, self.fail_set, self.max_ring_seq)

    def _broadcast_join(self):
        """Send our Join, damping fan-out during prolonged churn.

        The first ``JOIN_BURST`` sends of a gather phase broadcast
        exactly as the protocol always has -- quiet ring formations are
        untouched.  Beyond the burst (a churn storm: Join cascades feed
        on each other and, with co-hosted rings, hammer every ring's
        endpoint), sends are paced at least ``JOIN_MIN_SPACING`` apart
        -- excess calls coalesce into one deferred resend carrying the
        latest sets -- and all but every ``JOIN_DISCOVERY_PERIOD``-th
        are unicast to the candidate set instead of broadcast, keeping
        membership traffic ring-local while the periodic broadcast share
        still serves discovery.
        """
        join = self._own_join()
        self.joins[self.node_id] = join
        if self.state != "gather":
            self._send_join(join, broadcast=True)
            return
        self._join_sends += 1
        if self._join_sends <= JOIN_BURST:
            self._send_join(join, broadcast=True)
            return
        now = self.ep.now
        last = self._last_join_time
        if last is not None and now - last < JOIN_MIN_SPACING:
            self._count("totem.join.damped")
            if self._join_deferred is None:
                self._join_deferred = self.ep.timer(
                    last + JOIN_MIN_SPACING - now,
                    self._flush_deferred_join,
                    "join.deferred",
                )
            return
        self._damped_join_send(join)

    def _flush_deferred_join(self):
        """The coalesced resend: fires once the spacing has elapsed and
        sends unconditionally (re-checking the spacing here would spin on
        float rounding), carrying the *latest* membership sets."""
        self._join_deferred = None
        if self.state != "gather":
            return
        join = self._own_join()
        self.joins[self.node_id] = join
        self._damped_join_send(join)

    def _damped_join_send(self, join):
        self._join_damped_sends += 1
        if self._join_damped_sends % JOIN_DISCOVERY_PERIOD == 0:
            self._send_join(join, broadcast=True)
        else:
            self._count("totem.join.unicast")
            self._send_join(join, broadcast=False)

    def _send_join(self, join, broadcast):
        self._last_join_time = self.ep.now
        # Encode-once: periodic rebroadcasts of an unchanged Join (the
        # common case while waiting out a consensus round) reuse the
        # cached frame.
        key = (join.proc_set, join.fail_set, join.max_ring_seq)
        cached = self._join_cache
        if cached is not None and cached[0] == key:
            data = cached[1]
            self._count("wire.encode.cached")
        else:
            data = wire_encode(join, ring=self.ring_id)
            self._join_cache = (key, data)
        if broadcast:
            self.ep.broadcast(PORT, data, size=len(data))
        else:
            for peer in self._join_unicast_peers():
                self.ep.send(peer, PORT, data, size=len(data))

    def _join_unicast_peers(self):
        """Damped-regime targets: live candidates we already know about."""
        return sorted(self.proc_set - self.fail_set - {self.node_id})

    def _arm_join_timer(self):
        def periodic():
            if self.state != "gather":
                return
            self._broadcast_join()
            self._arm_join_timer()

        self._join_timer = self.ep.timer(self.config.join_interval, periodic, "join")

    def _arm_consensus_timer(self):
        if self._consensus_timer is not None:
            self._consensus_timer.cancel()

        def deadline():
            if self.state != "gather":
                return
            silent = [
                p for p in self.proc_set - self.fail_set
                if p != self.node_id and p not in self.joins
            ]
            if silent:
                self.fail_set.update(silent)
                self.ep.emit(
                    "totem.fail_set",
                    {
                        "node": self.node_id,
                        "failed": sorted(silent),
                        "ring_id": self.ring_id,
                    },
                )
                self._singleton_allowed = True
                self._membership_changed()
            else:
                self._singleton_allowed = True
                self._broadcast_join()
                self._arm_consensus_timer()
                self._check_consensus()

        self._consensus_timer = self.ep.timer(
            self.config.consensus_timeout, deadline, "consensus"
        )

    def _membership_changed(self):
        self._broadcast_join()
        self._arm_consensus_timer()
        self._check_consensus()

    def _handle_join(self, src, join):
        if self.state in ("commit", "recovery"):
            # Ignore Joins while a configuration is being installed: the
            # commit token pulls gathering processors into the pending ring,
            # the commit timeout covers a genuinely failed member, and a
            # processor missing from the pending ring re-triggers the
            # membership protocol with its periodic Join after we install.
            # Aborting the commit on every Join creates a feedback storm
            # (abort -> Join broadcast -> abort elsewhere -> ...).
            return
        if self.state == "operational":
            if self._join_predates_ring(src, join):
                return
            self._enter_gather("join received", extra_procs=(src,))
        if self.state != "gather":
            return
        changed = False
        self.joins[src] = join
        self.max_ring_seq = max(self.max_ring_seq, join.max_ring_seq)
        new_procs = ({src} | set(join.proc_set)) - self.proc_set
        if new_procs:
            self.proc_set |= new_procs
            changed = True
        new_fails = (set(join.fail_set) - {self.node_id, src}) - self.fail_set
        if new_fails:
            self.fail_set |= new_fails
            changed = True
        if src in self.fail_set:
            self.fail_set.discard(src)
            changed = True
        if changed:
            self._membership_changed()
        else:
            self._check_consensus()

    def _join_predates_ring(self, src, join):
        """While operational, ignore leftover Joins from our ring's formation.

        A ring member that genuinely restarts the membership protocol knows
        the installed ring, so its Join carries ``max_ring_seq >= ring.seq``;
        Joins with older ring knowledge and no outside candidates are
        stragglers from the gather phase that produced the current ring.
        """
        if self.ring is None or src not in self.ring.members:
            return False
        if join.max_ring_seq >= self.ring.seq:
            return False
        candidates = set(join.proc_set) - set(join.fail_set)
        return candidates <= set(self.ring.members)

    def _check_consensus(self):
        if self.state != "gather":
            return
        candidates = self.proc_set - self.fail_set
        if candidates == {self.node_id} and not self._singleton_allowed:
            return
        for member in candidates:
            join = self.joins.get(member)
            if join is None:
                return
            if set(join.proc_set) != self.proc_set or set(join.fail_set) != self.fail_set:
                return
        self._reach_consensus(candidates)

    def _reach_consensus(self, candidates):
        new_seq = self.max_ring_seq + 4
        self.pending_ring = RingId(new_seq, candidates)
        self.pending_store = _RingStore(self.pending_ring)
        self._consensus_fail_set = frozenset(self.fail_set)
        self.state = "commit"
        self._last_commit_hop = {}
        self.ep.emit(
            "totem.consensus",
            {"node": self.node_id, "ring": self.pending_ring.key(),
             "ring_id": self.ring_id},
        )
        if self._join_timer is not None:
            self._join_timer.cancel()
        if self._consensus_timer is not None:
            self._consensus_timer.cancel()
        self._arm_commit_timer()
        if self.pending_ring.representative == self.node_id:
            token = CommitToken(self.pending_ring)
            token.infos[self.node_id] = self._my_member_info()
            if len(self.pending_ring.members) == 1:
                token.complete = True
                self._enter_recovery(token)
            else:
                self._forward_commit(token)

    def _my_member_info(self):
        if self.ring is None or self.store is None:
            return MemberInfo(self.node_id, None, 0, 0, ())
        return MemberInfo(
            self.node_id,
            self.ring.key(),
            self.store.my_aru,
            self.store.high_seq,
            self.store.have_list(),
        )

    def _arm_commit_timer(self):
        if self._commit_timer is not None:
            self._commit_timer.cancel()
        pending = self.pending_ring

        def timeout():
            if self.state in ("commit", "recovery") and self.pending_ring == pending:
                self.ep.emit(
                    "totem.commit.timeout",
                    {"node": self.node_id, "ring_id": self.ring_id},
                )
                self._enter_gather("commit timeout")

        self._commit_timer = self.ep.timer(self.config.commit_timeout, timeout, "commit")

    def _forward_commit(self, token):
        token.hop += 1
        successor = token.ring.successor_of(self.node_id)
        # Encode once; retries resend the same bytes.
        data = wire_encode(token, ring=self.ring_id)
        self._commit_sent = (successor, data)
        self._commit_retransmits = 0
        self._commit_progress = False
        self.ep.send(successor, PORT, data, size=len(data))
        self._arm_commit_retry()

    def _arm_commit_retry(self):
        if self._commit_retry_timer is not None:
            self._commit_retry_timer.cancel()
        pending = self.pending_ring

        def retry():
            if self.state not in ("commit", "recovery") or self.pending_ring != pending:
                return
            if self._commit_progress or self._commit_sent is None:
                return
            if self._commit_retransmits >= self.config.token_retransmit_limit:
                return
            self._commit_retransmits += 1
            self._charge_retransmit()
            successor, data = self._commit_sent
            self.ep.emit(
                "totem.commit.retransmit",
                {"node": self.node_id, "ring_id": self.ring_id},
            )
            self._count("wire.encode.cached")
            self.ep.send(successor, PORT, data, size=len(data))
            self._arm_commit_retry()

        self._commit_retry_timer = self.ep.timer(
            self.config.token_retransmit_timeout, retry, "commit.retry"
        )

    def _note_commit_progress(self):
        self._commit_progress = True

    def _handle_commit(self, src, token):
        if self.node_id not in token.ring.members:
            if self.state == "operational":
                self._enter_gather("excluded from commit")
            return
        if self.state == "operational" and self.ring == token.ring:
            return  # stale duplicate after install
        if self.state == "recovery":
            if self.pending_ring == token.ring:
                self._note_commit_progress()
            return
        last_hop = self._last_commit_hop.get(token.ring.key(), -1)
        if token.hop <= last_hop:
            return
        self._last_commit_hop[token.ring.key()] = token.hop
        if self.state == "gather":
            # Consensus did not fire locally, but the representative's commit
            # token implies it was reached: adopt the pending ring.
            self.pending_ring = token.ring
            self.pending_store = _RingStore(token.ring)
            self._consensus_fail_set = frozenset(self.fail_set)
            self.state = "commit"
            if self._join_timer is not None:
                self._join_timer.cancel()
            if self._consensus_timer is not None:
                self._consensus_timer.cancel()
            self._arm_commit_timer()
        if self.pending_ring != token.ring:
            # Commit for a different pending ring than ours: restart.
            self._enter_gather("conflicting commit")
            return
        self._note_commit_progress()
        if token.complete:
            self._enter_recovery(token)
            if token.ring.successor_of(self.node_id) != token.ring.representative:
                self._forward_commit(token)
            return
        token.infos[self.node_id] = self._my_member_info()
        if self.node_id == token.ring.representative:
            if len(token.infos) == len(token.ring.members):
                token.complete = True
                self._forward_commit(token)
                self._enter_recovery(token)
            else:
                # Someone's info is missing after a full rotation: restart.
                self._enter_gather("incomplete commit rotation")
        else:
            self._forward_commit(token)

    # ------------------------------------------------------------------
    # Recovery phase
    # ------------------------------------------------------------------

    def _enter_recovery(self, commit_token):
        self.state = "recovery"
        self.pending_ring = commit_token.ring
        if self.pending_store is None or self.pending_store.ring != commit_token.ring:
            self.pending_store = _RingStore(commit_token.ring)
        self._recovery_infos = dict(commit_token.infos)
        self._recovery_attempts = 0
        self._old_store = self.store
        self.ep.emit(
            "totem.recovery.enter",
            {"node": self.node_id, "ring": self.pending_ring.key(),
             "ring_id": self.ring_id},
        )
        my_info = self._recovery_infos[self.node_id]
        if my_info.old_ring_key is None or self._old_store is None:
            self._recovery_required = set()
        else:
            peers = self._recovery_peers()
            group = [self._recovery_infos[p] for p in peers]
            union = set()
            max_aru = max(info.aru for info in group)
            union.update(range(1, max_aru + 1))
            for info in group:
                union.update(info.have)
            self._recovery_required = union
            self._rebroadcast_responsibilities(group, union)
        self._arm_recovery_timer()
        self._check_recovery_done()

    def _recovery_peers(self):
        """Members of the new ring that share our previous ring."""
        my_key = self._recovery_infos[self.node_id].old_ring_key
        return sorted(
            member
            for member, info in self._recovery_infos.items()
            if info.old_ring_key == my_key and my_key is not None
        )

    def _info_has(self, info, seq):
        return seq <= info.aru or seq in info.have

    def _rebroadcast_responsibilities(self, group, union):
        """Deterministically assign each recoverable message a rebroadcaster.

        The lowest-id member holding a message re-broadcasts it; everyone
        computes the same assignment from the commit-token infos, so each
        message is re-sent exactly once unless lost (then re-requested).
        """
        store = self._old_store
        for seq in sorted(union):
            holders = [info.member for info in group if self._info_has(info, seq)]
            if holders and min(holders) == self.node_id and seq in store.received:
                self._charge_retransmit()
                self._rebroadcast(store, store.received[seq])

    def _missing_seqs(self):
        store = self._old_store
        if store is None:
            return set()
        return {s for s in self._recovery_required if not store.has(s)}

    def _arm_recovery_timer(self):
        if self._recovery_timer is not None:
            self._recovery_timer.cancel()
        pending = self.pending_ring

        def retry():
            if self.state != "recovery" or self.pending_ring != pending:
                return
            missing = self._missing_seqs()
            if not missing:
                return
            self._recovery_attempts += 1
            if self._recovery_attempts > self.config.recovery_attempt_limit:
                self._enter_gather("recovery stalled")
                return
            my_key = self._recovery_infos[self.node_id].old_ring_key
            request = RecoveryRequest(my_key, missing, self.node_id)
            self.ep.emit(
                "totem.recovery.request",
                {"node": self.node_id, "n": len(missing), "ring_id": self.ring_id},
            )
            self._broadcast(request)
            self._arm_recovery_timer()

        self._recovery_timer = self.ep.timer(
            self.config.recovery_retry_timeout, retry, "recovery.retry"
        )

    def _handle_recovery_request(self, src, request):
        store = None
        if self.store is not None and self.store.ring.key() == request.ring_key:
            store = self.store
        elif self._old_store is not None and self._old_store.ring.key() == request.ring_key:
            store = self._old_store
        if store is None:
            return
        self._note_commit_progress()
        for seq in request.seqs:
            msg = store.received.get(seq)
            if msg is not None:
                self._charge_retransmit()
                self._rebroadcast(store, msg)

    def _handle_recovery_done(self, src, done):
        self._done_received.setdefault(done.new_ring_key, set()).add(src)
        if self.state == "recovery" and self.pending_ring is not None:
            self._note_commit_progress()
            self._check_install()

    def _check_recovery_done(self):
        if self.state != "recovery":
            return
        if self._missing_seqs():
            return
        key = self.pending_ring.key()
        done_set = self._done_received.setdefault(key, set())
        if self.node_id not in done_set:
            done_set.add(self.node_id)
            self._broadcast(RecoveryDone(key, self.node_id))
        self._check_install()

    def _check_install(self):
        key = self.pending_ring.key()
        done_set = self._done_received.get(key, set())
        if self.node_id not in done_set:
            self._check_recovery_done()
            return
        if set(self.pending_ring.members) <= done_set:
            self._install_ring()

    # ------------------------------------------------------------------
    # Ring installation: EVS delivery of old-ring remainders
    # ------------------------------------------------------------------

    def _install_ring(self):
        old_store = self._old_store
        new_ring = self.pending_ring
        peers = self._recovery_peers()

        if old_store is not None:
            self._deliver_old_ring(old_store, new_ring, peers)

        self.on_config(RegularConfiguration(new_ring.key(), new_ring.members))
        self.ep.emit(
            "totem.install",
            {"node": self.node_id, "ring": new_ring.key(), "ring_id": self.ring_id},
        )

        self._cancel_timers()
        self.state = "operational"
        self.ring = new_ring
        self.store = self.pending_store
        self.max_ring_seq = max(self.max_ring_seq, new_ring.seq)
        self.last_token_id = 0
        self.pending_ring = None
        self.pending_store = None
        self._old_store = None
        self._recovery_infos = {}
        self._recovery_required = set()
        self._done_received.pop(new_ring.key(), None)
        self._commit_sent = None
        self._parked_token = None

        stashed = self._stashed_token
        self._stashed_token = None
        self._arm_loss_timer()
        self._arm_beacon_timer()
        self._try_deliver(self.store)
        if stashed is not None:
            self._handle_token(new_ring.representative, stashed)
        elif self.node_id == new_ring.representative:
            token = Token(new_ring)
            self._handle_token(self.node_id, token)

    def _deliver_old_ring(self, old_store, new_ring, peers):
        """Deliver recovered old-ring messages per extended virtual synchrony.

        Phase A delivers, still under the old configuration's guarantees,
        the contiguous prefix of agreed messages (and safe messages already
        known safe).  The transitional configuration is then announced, and
        phase B delivers every remaining recovered message under the
        transitional membership.
        """
        union = self._recovery_required
        # Phase A: old-configuration deliveries.
        while True:
            seq = old_store.delivered_upto + 1
            msg = old_store.received.get(seq)
            if msg is None:
                break
            if msg.guarantee == "safe" and seq > old_store.safe_seq:
                break
            old_store.delivered_upto = seq
            self._deliver(msg, transitional=False)
        # Transitional configuration announcement.
        self.on_config(
            TransitionalConfiguration(old_store.ring.key(), new_ring.key(), peers)
        )
        # Phase B: remaining recovered messages, in sequence order, under
        # the transitional membership.  Holes (messages no surviving member
        # holds) are skipped.
        for seq in sorted(union):
            if seq <= old_store.delivered_upto:
                continue
            msg = old_store.received.get(seq)
            if msg is not None:
                self._deliver(msg, transitional=True)
        old_store.delivered_upto = max(
            [old_store.delivered_upto] + list(union)
        ) if union else old_store.delivered_upto
