"""The membership half of the Totem state machine.

:class:`MembershipProtocol` is the part of
:class:`~repro.totem.processor.TotemProcessor` that runs while no ring is
installed: ``gather`` (Join exchange until consensus), ``commit`` (the
two-rotation Commit token), ``recovery`` (old-ring message exchange) and
the installation of the new ring with its extended-virtual-synchrony
deliveries.  It is a mixin, not a layer: one processor is one state
machine and both halves work on the same state; the split is by phase,
so that the operational phase -- data, token, the idle hold -- reads as
one file and the membership protocol as another.
"""

from repro.totem.events import RegularConfiguration, TransitionalConfiguration
from repro.totem.messages import (
    CommitToken,
    JoinMessage,
    MemberInfo,
    RecoveryDone,
    RecoveryRequest,
    RingId,
    Token,
)
from repro.totem.ringmux import PORT
from repro.totem.store import RingStore
from repro.wire.codec import encode as wire_encode

# Join damping (see ``_broadcast_join``): Join sends per gather phase
# before damping engages; minimum seconds between damped sends; every Nth
# damped send is still a broadcast (merge/discovery traffic).
JOIN_BURST = 16
JOIN_MIN_SPACING = 2.5e-3
JOIN_DISCOVERY_PERIOD = 4


class MembershipProtocol:
    """Gather, commit, recovery and ring installation (see module docstring)."""

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
        self._hold_cancelled = False
        self._ring_idle = False
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
        self._last_commit_hop = {}
        self._enter_commit(RingId(self.max_ring_seq + 4, candidates))
        self.ep.emit(
            "totem.consensus",
            {"node": self.node_id, "ring": self.pending_ring.key(),
             "ring_id": self.ring_id},
        )
        if self.pending_ring.representative == self.node_id:
            token = CommitToken(self.pending_ring)
            token.infos[self.node_id] = self._my_member_info()
            if len(self.pending_ring.members) == 1:
                token.complete = True
                self._enter_recovery(token)
            else:
                self._forward_commit(token)

    def _enter_commit(self, ring):
        self.pending_ring = ring
        self.pending_store = RingStore(ring)
        self.state = "commit"
        if self._join_timer is not None:
            self._join_timer.cancel()
        if self._consensus_timer is not None:
            self._consensus_timer.cancel()
        self._arm_commit_timer()

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
            self._enter_commit(token.ring)
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
            self.pending_store = RingStore(commit_token.ring)
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
            # The representative mints the token with a visit of its own;
            # holding is only ever decided on a token that comes back.
            self._token_visit(Token(new_ring))

    def _deliver_old_ring(self, old_store, new_ring, peers):
        """Deliver recovered old-ring messages per extended virtual synchrony.

        Phase A delivers, still under the old configuration's guarantees,
        the contiguous prefix of agreed messages (and safe messages already
        known safe).  The transitional configuration is then announced, and
        phase B delivers every remaining recovered message under the
        transitional membership.
        """
        # Phase A: old-configuration deliveries.
        self._try_deliver(old_store)
        # Transitional configuration announcement.
        self.on_config(
            TransitionalConfiguration(old_store.ring.key(), new_ring.key(), peers)
        )
        # Phase B: remaining recovered messages, in sequence order, under
        # the transitional membership.  Holes (messages no surviving member
        # holds) are skipped.  (The old store is dropped after this.)
        for seq in sorted(self._recovery_required):
            if seq <= old_store.delivered_upto:
                continue
            msg = old_store.received.get(seq)
            if msg is not None:
                self._deliver(msg, transitional=True)
