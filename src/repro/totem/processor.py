"""The Totem single-ring protocol state machine.

One :class:`TotemProcessor` runs per simulated node.  It provides reliable,
totally-ordered multicast with agreed and safe delivery guarantees, ring
membership with failure detection, and extended-virtual-synchrony
configuration changes across partitions and remerges.

State machine (mirrors the Totem membership protocol's phases; this file
holds the operational phase, :mod:`repro.totem.membership` the other three):

- ``operational``: a ring is installed; the token circulates; messages are
  broadcast when the token visits and delivered in sequence order.  Only
  the representative ever keeps the token: on an idle ring it parks it
  until a member has something to send, on a busy one it releases it no
  faster than once per ``config.min_rotation`` (see ``_handle_token``).
- ``gather``: the processor is building consensus on a new membership by
  exchanging Join messages.
- ``commit``: consensus reached; the Commit token is collecting each
  member's record of what it holds from its previous ring.
- ``recovery``: members exchange old-ring messages they are missing; when
  everyone announces completion the new ring is installed, delivering the
  transitional and regular configuration events.
"""

from collections import deque

from repro.runtime.sim import endpoint_of
from repro.totem.config import RetransmitBudgetExceeded, TotemConfig
from repro.totem.events import DeliveredMessage
from repro.totem.membership import MembershipProtocol
from repro.totem.messages import (
    CommitToken,
    DataMessage,
    HoldCancel,
    JoinMessage,
    RecoveryDone,
    RecoveryRequest,
    RingBeacon,
    Token,
)
from repro.totem.ringmux import PORT, datagram_ring
from repro.wire.codec import decode_payload
from repro.wire.codec import encode as wire_encode
from repro.wire.framing import WireFormatError, encode_batch

# Every timer handle a processor keeps; all are cancelled on a state change.
_TIMERS = (
    "_beacon_timer", "_hold_timer", "_retransmit_timer", "_loss_timer",
    "_join_timer", "_consensus_timer", "_commit_timer", "_commit_retry_timer",
    "_recovery_timer", "_join_deferred",
)


class TotemProcessor(MembershipProtocol):
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
            HoldCancel: self._handle_hold_cancel,
        }
        self._counters = {}
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
        change is in progress, on the next installed ring); an idle ring's
        parked token is woken for them.  ``guarantee`` selects agreed or
        safe delivery.  ``span`` optionally names the telemetry span of
        the invocation this message carries; the span's ``enqueue`` point
        is stamped here and the id rides the wire so ``sent``/``delivered``
        are stamped where those events happen.
        """
        if guarantee not in ("agreed", "safe"):
            raise ValueError("guarantee must be 'agreed' or 'safe'")
        self.send_queue.append((payload, size, guarantee, span))
        if span is not None:
            self._telemetry.span_mark(span, "enqueue", self.ep.now)
        if self._parked_token is not None:
            self._unpark_token()
        elif self._ring_idle:
            self._send_hold_cancel()

    def cancel_queued(self, predicate):
        """Remove not-yet-broadcast messages whose payload matches.

        Used for sender-side duplicate suppression: a replica that learns a
        peer already multicast the same logical operation withdraws its own
        copy if it is still waiting for the token.  Returns the number of
        messages removed.
        """
        queue = self.send_queue
        before = len(queue)
        if before:
            kept = [entry for entry in queue if not predicate(entry[0])]
            if len(kept) != before:
                queue.clear()
                queue.extend(kept)
        return before - len(queue)

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
        self.send_queue = deque()
        self.max_ring_seq = 0
        self.last_token_id = 0
        # A token resting here: a singleton ring's, or the one this
        # representative holds while the ring is idle (then with a timer).
        self._parked_token = None
        self._hold_timer = None
        # A hold-cancel that arrived ahead of the token it is meant for.
        self._hold_cancelled = False
        # The earliest instant the representative may next release the
        # token (fixed-rate pacing, see ``_handle_token``).
        self._release_due = float("-inf")
        # The token last forwarded from here will be parked by the
        # representative unless something is sent first.
        self._ring_idle = False
        # Token retransmission bookkeeping.
        self._token_retransmits = 0
        self._progress_seen = False
        self._retransmit_timer = None
        self._loss_timer = None
        self._beacon_timer = None
        self._beacon_cache = None
        # Sequence gaps seen at the previous token visit (a first-seen
        # gap gets one visit of grace before it becomes an rtr entry --
        # in-flight data may still be arriving).
        self._rtr_pending = set()
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
        for name in _TIMERS:
            timer = getattr(self, name)
            if timer is not None:
                timer.cancel()
                setattr(self, name, None)

    def _on_crash(self):
        self._cancel_timers()
        self.state = "down"
        self._ring_idle = False  # a dead node's send() must not cancel holds

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
        return counter.inc(n)

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
        spent = self._count("totem.retransmit.budget")
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
            if self.store.insert(msg):
                self._ring_idle = False  # the token comes round with it
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

    def _try_deliver(self, store):
        """Advance the delivery pointer in strict sequence order."""
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
        # The hold is a function of the rotation, not a constant at every
        # hop: only the representative ever keeps the token, and only when
        # the rotation that just ended had nothing to do -- every member saw
        # ``safe_seq == seq`` on it (nothing sent, nothing still waiting to
        # become safe), nobody asked for a retransmission, and nothing is
        # queued here.  A hold-cancel that got here first skips one hold.
        #
        # A ring that carries traffic is paced instead: the representative
        # releases the token at most once per ``config.min_rotation``,
        # against a fixed-rate schedule (``_release_due`` advances by one
        # period per release, not to "now + period"), so a timer that
        # fires late -- an event loop's are rounded up to its tick -- or a
        # stalled process is made up over the next rotations instead of
        # stretching every one.  Lateness is owed only for time the ring
        # was busy (waking from an idle hold restarts the schedule) and
        # at most ``token_loss_timeout`` of it: a longer stall re-forms
        # the ring anyway.  A rotation that takes longer than the period
        # never waits.
        cancelled, self._hold_cancelled = self._hold_cancelled, False
        if self.node_id != self.ring.representative:
            self._token_visit(token)
        elif (token.safe_seq == token.seq and not token.rtr
                and not self.send_queue and not cancelled):
            self._hold_token(token)
        elif self.ep.now < self._release_due:
            self._pace_token(token)
        else:
            self._token_visit(token)

    def _token_visit(self, token):
        """One token visit: flush everything, data first, then the token.

        Ordering overlaps with delivery: the sender's own messages'
        sequence numbers are settled the moment they are drawn from the
        token, so they are inserted into the store (and agreed ones
        delivered) right here instead of waiting for a loopback copy of
        the broadcast.  The *whole* send queue is flushed -- batching
        across invocations; ``window`` only caps the messages per
        datagram so real-socket size limits hold -- and the token leaves
        at once.

        A sequence gap seen for the first time may still be in flight:
        it gets one visit of grace before becoming an rtr entry.
        """
        store = self.store
        # Service retransmission requests we can satisfy.
        for seq in sorted(token.rtr):
            msg = store.received.get(seq)
            if msg is not None:
                self._charge_retransmit()
                self._rebroadcast(store, msg)
                token.rtr.discard(seq)

        telemetry = self._telemetry
        queue = self.send_queue
        base_seq = token.seq
        batch = []
        fresh = []
        for _ in range(len(queue)):
            payload, size, guarantee, span = queue.popleft()
            token.seq += 1
            msg = DataMessage(self.ring, token.seq, self.node_id, payload,
                              size, guarantee, span=span)
            if span is not None:
                telemetry.span_mark(span, "sent", self.ep.now)
            batch.append(wire_encode(msg, ring=self.ring_id))
            fresh.append(msg)

        # Request retransmission only of gaps that survived a full visit.
        missing = {seq for seq in range(store.my_aru + 1, base_seq + 1)
                   if seq not in store.received}
        token.rtr |= missing & self._rtr_pending
        self._rtr_pending = missing - token.rtr

        # Our own messages are ordered now: store them before the token
        # leaves so rtr requests for them can be served next visit.
        for msg in fresh:
            store.insert(msg)

        # Safe-delivery accounting: one full rotation of minimum arus
        # (my_aru already includes the messages flushed this visit).
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
        window = max(1, self.config.window)
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
            self.ep.broadcast(PORT, data, size=len(data), include_self=False)
        if fresh:
            self._count("totem.pipeline.flush")
            self._count("totem.pipeline.batched", len(fresh))
        self._forward_token(token)
        self._try_deliver(store)
        store.collect_garbage()

    def _forward_token(self, token):
        token.token_id += 1
        ring = self.ring
        successor = ring.successor_of(self.node_id)
        self._token_retransmits = 0
        self._progress_seen = False
        config = self.config
        self._release_due = max(
            self._release_due, self.ep.now - config.token_loss_timeout
        ) + config.min_rotation
        if successor == self.node_id:
            self._park_singleton_token(token)
            return
        # What the representative will decide when this token reaches it,
        # unless something is sent first; a non-representative ``send``
        # consults it to know whether a hold-cancel is needed.
        self._ring_idle = (self.node_id != ring.representative
                           and token.safe_seq == token.seq and not token.rtr)
        # Encode once: the forward and any retransmissions all send these
        # same bytes, the snapshot of the token as it left this visit.
        data = wire_encode(token, ring=self.ring_id)
        self.ep.send(successor, PORT, data, size=len(data))
        self._arm_token_retransmit(ring, successor, data)
        self._arm_loss_timer()

    def _park_singleton_token(self, token):
        """On a singleton ring the token rests until there is work.

        Everything broadcast so far is in our own store, hence safe;
        :meth:`send` wakes the token up.
        """
        if self._loss_timer is not None:
            self._loss_timer.cancel()
            self._loss_timer = None
        self._parked_token = token
        token.safe_seq = token.seq
        self.store.safe_seq = token.seq

    def _hold_token(self, token):
        """Park an idle ring's token at the representative.

        The hold ends after ``config.idle_hold`` or as soon as anyone has
        something to send: a local :meth:`send`, or a member's
        :class:`HoldCancel`.
        """
        self._parked_token = token
        self.ep.emit(
            "totem.token.hold",
            {"node": self.node_id, "ring_id": self.ring_id},
        )
        self._hold_timer = self.ep.timer(
            self.config.idle_hold, self._unpark_token, "token.hold")

    def _pace_token(self, token):
        """Keep a busy ring's token until its next release is due.

        Unlike the idle hold this wait is not a parked token: nothing
        cancels it, and what is sent meanwhile is flushed by the visit.
        """
        def release():
            self._hold_timer = None
            if self.state == "operational" and token.ring == self.ring:
                self._token_visit(token)

        self._count("totem.token.paced")
        self._hold_timer = self.ep.timer(
            self._release_due - self.ep.now, release, "token.pace")

    def _unpark_token(self):
        """Resume the parked token with a visit, one scheduler turn from
        now so that sends issued together are flushed together."""
        token = self._parked_token
        if token is None or self.state != "operational":
            return
        self._parked_token = None
        if self._hold_timer is not None:
            self._hold_timer.cancel()
            self._hold_timer = None

        def resume():
            if self.state == "operational" and token.ring == self.ring:
                # Time spent idle is not lateness to be made up.
                self._release_due = max(self._release_due, self.ep.now)
                self._token_visit(token)

        self.ep.timer(0.0, resume, "token.unpark")

    def _send_hold_cancel(self):
        """Tell the representative, which is about to park (or has
        parked) the idle ring's token, that there is something to send."""
        self._ring_idle = False
        self.ep.emit(
            "totem.token.hold_cancel",
            {"node": self.node_id, "ring_id": self.ring_id},
        )
        data = wire_encode(HoldCancel(self.ring), ring=self.ring_id)
        self.ep.send(self.ring.representative, PORT, data, size=len(data))

    def _handle_hold_cancel(self, src, cancel):
        if self.state != "operational" or cancel.ring != self.ring:
            return
        if self._parked_token is not None:
            self._unpark_token()
        else:
            self._hold_cancelled = True

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
            self._arm_token_retransmit(ring, successor, data)

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
        if self.state == "operational":
            if beacon.ring != self.ring:
                self._consider_foreign(src, beacon.ring)
        elif self.state == "gather" and src not in self.proc_set:
            self.max_ring_seq = max(self.max_ring_seq, beacon.ring.seq)
            self.proc_set.add(src)
            self._membership_changed()

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
