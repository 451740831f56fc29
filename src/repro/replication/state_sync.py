"""Passive updates, resync, checkpoints and state transfer: the state
family of :class:`~repro.replication.engine.ReplicationEngine`."""

from repro.orb.cdr import encode_value
from repro.replication.duplicates import COMPLETED
from repro.replication.replica import DispatcherJob
from repro.replication.requests import _ENVELOPE_OVERHEAD
from repro.state.three_tier import FullStateCapture
from repro.state.transfer import IncrementalAssembler, IncrementalTransfer
from repro.wire.framing import WireFormatError

STATE_UPDATE = "ft-state-update"
STATE_UPDATE_IMAGE = "ft-state-update-image"
CHECKPOINT = "ft-checkpoint"
STATE_FULL = "ft-state-full"
STATE_CHUNK = "ft-state-chunk"
STATE_END = "ft-state-end"
RESYNC = "ft-resync"
RESYNC_STATE = "ft-resync-state"

#: Chunk size of an incremental state transfer, in bytes.
CHUNK_BYTES = 2048


class StateSync:
    """Engine mixin: the state family (see module docstring)."""

    # ------------------------------------------------------------------
    # Passive state updates / checkpoints
    # ------------------------------------------------------------------

    def _multicast_state_update(self, replica, operation_id, client_group,
                                reply_bytes):
        image = None
        if replica.policy.update_mode == "image":
            # The servant's post-image of its last update, if it offers one.
            getter = getattr(replica.servant, "get_update_image", None)
            image = getter() if getter is not None else None
        if image is not None:
            kind, state = STATE_UPDATE_IMAGE, image
            self.ep.emit("ft.state.update.image.sent", {"group": replica.group})
        else:
            kind, state = STATE_UPDATE, replica.servant.get_state()
            self.ep.emit("ft.state.update.sent", {"group": replica.group})
        self._member_for(replica.group).send(
            (replica.group,),
            (kind, replica.group, operation_id, replica.ops_applied,
             state, reply_bytes, client_group),
            size=len(encode_value(state)) + _ENVELOPE_OVERHEAD,
        )

    def _deliver_state_update(self, replica, payload, order_key):
        """Apply a full-state or a post-image update (one shape, two kinds)."""
        kind, group, operation_id, position, state, reply_bytes, client_group = payload
        if replica.table.status(operation_id) == COMPLETED:
            return  # we executed this ourselves (we are the primary)
        if position != replica.ops_applied + 1:
            # Updates apply only contiguously: ``position`` counts the
            # operations the sender's state embodies, so in a healthy ring
            # every update arrives at ``ops_applied + 1``.  A *regression*
            # is an old snapshot surfacing late; applying it would rewind
            # the servant.  A *gap* means updates died on a ring we never
            # ran: the snapshot embeds operations our table never saw
            # completed, which a later fulfillment would re-apply (and an
            # image would corrupt a base it was not computed against).
            # Drop either, and after a gap ask the primary for a capture.
            # (A count cannot tell forked histories apart: see _unfenced.)
            self.ep.emit("ft.state.update.stale", {"group": group,
                                                    "node": self.node_id})
            if position > replica.ops_applied + 1:
                self._request_resync(replica)
            return
        if kind == STATE_UPDATE:
            replica.servant.set_state(state)
            applied = "ft.state.update.applied"
        else:
            replica.servant.apply_update_image(state)
            applied = "ft.state.update.image.applied"
        replica.complete(operation_id, None, client_group, reply_bytes)
        self.ep.emit(applied, {"group": group, "node": self.node_id})

    # ------------------------------------------------------------------
    # Passive-backup resynchronization after an update gap
    # ------------------------------------------------------------------

    def _request_resync(self, replica):
        """Ask the group's primary for a fresh capture after an update gap.

        One request per gap episode: the flag re-arms when a capture is
        adopted (any wholesale adoption heals the gap) or when a new ring
        installs (the request may have been lost to a primary outside our
        component; the next gapped update then retries).
        """
        if replica.resync_pending:
            return
        replica.resync_pending = True
        self.ep.emit("ft.resync.requested", {"group": replica.group,
                                              "node": self.node_id})
        self._member_for(replica.group).send(
            (replica.group,),
            (RESYNC, replica.group, self.node_id),
            size=_ENVELOPE_OVERHEAD,
        )

    def _deliver_resync(self, replica, payload, order_key):
        _, group, requester = payload
        if not (replica.ready and replica.is_primary):
            return
        # Riding the dispatcher orders the capture after every
        # execution already in flight, so the snapshot's ops_applied
        # matches the update positions the requester will see next.
        replica.dispatcher.submit(DispatcherJob(
            lambda done: self._send_resync_state(replica, requester, done)))

    def _send_resync_state(self, replica, requester, done):
        capture = self._capture(replica)
        value = capture.as_value()
        encoded = encode_value(value)
        self.ep.emit("ft.resync.sent", {"group": replica.group,
                                         "bytes": len(encoded)})
        self._member_for(replica.group).send(
            (replica.group,),
            (RESYNC_STATE, replica.group, value, self.node_id, requester),
            size=len(encoded) + _ENVELOPE_OVERHEAD,
        )
        done()

    def _deliver_resync_state(self, replica, payload, order_key):
        _, group, value, sponsor, target = payload
        if target != self.node_id:
            return
        if not replica.resync_pending or not replica.ready:
            return
        # Ops this backup completed that the primary's capture lacks
        # (executed while it was a side primary) become fulfillments,
        # exactly as in a merge adoption; for a plain lagging backup the
        # plan is empty.
        self._adopt_with_fulfillment(
            replica, FullStateCapture.from_value(value), "ft.resync.adopted")

    def _multicast_checkpoint(self, replica):
        capture = self._capture(replica)
        replica.ops_since_checkpoint = 0
        value = capture.as_value()
        self.ep.emit("ft.checkpoint.sent", {"group": replica.group})
        self._member_for(replica.group).send(
            (replica.group,),
            (CHECKPOINT, replica.group, value),
            size=len(encode_value(value)) + _ENVELOPE_OVERHEAD,
        )

    def _from_peer(self, message, payload):
        # A node ignores its own checkpoints (the primary already reset its
        # own counters when sending), transfer frames and resync requests.
        return message.sender != self.node_id

    def _peer_checkpoint(self, message, payload):
        return (self._from_peer(message, payload)
                and self._unfenced(message, payload))

    def _deliver_checkpoint(self, replica, payload, order_key):
        _, group, value = payload
        self._adopt_capture(replica, FullStateCapture.from_value(value),
                            checkpoint=True)
        self.ep.emit("ft.checkpoint.applied", {"group": group,
                                                "node": self.node_id})

    # ------------------------------------------------------------------
    # State transfer: sponsor side
    # ------------------------------------------------------------------

    def _capture(self, replica):
        return FullStateCapture(
            application=replica.servant.get_state(),
            orb={},
            infrastructure=replica.infrastructure_state(),
            position=replica.ops_applied,
        )

    def _schedule_sponsorship(self, replica):
        replica.dispatcher.submit(DispatcherJob(
            lambda done: self._send_state_capture(replica, done)))

    def _send_state_capture(self, replica, done):
        capture = self._capture(replica)
        value = capture.as_value()
        encoded = encode_value(value)
        marker = "%s@%d" % (self.node_id, replica.ops_applied)
        self.ep.emit("ft.state.full.sent",
                      {"group": replica.group, "bytes": len(encoded)})
        if replica.policy.state_transfer == "blocking":
            # Blocking semantics: the replica processes no operations until
            # the transfer is on the wire and delivered back to us.
            replica.sponsor_done = done
            replica.sponsor_marker = marker
            self._member_for(replica.group).send(
                (replica.group,),
                (STATE_FULL, replica.group, value, self.node_id, marker),
                size=len(encoded) + _ENVELOPE_OVERHEAD,
            )
        else:
            transfer = IncrementalTransfer(value, CHUNK_BYTES)
            transfer.stats.started_at = self.ep.now
            member = self._member_for(replica.group)
            for frame in transfer.framed_chunks():
                member.send(
                    (replica.group,),
                    (STATE_CHUNK, replica.group, self.node_id, marker, frame),
                    size=len(frame) + _ENVELOPE_OVERHEAD,
                )
            member.send(
                (replica.group,),
                (STATE_END, replica.group, self.node_id, marker),
                size=_ENVELOPE_OVERHEAD,
            )
            transfer.stats.finished_at = self.ep.now
            transfer.stats.record_to(self._telemetry.metrics)
            done()

    # ------------------------------------------------------------------
    # State transfer: receiving side
    # ------------------------------------------------------------------

    def _deliver_state_full(self, replica, payload, order_key):
        _, group, value, sponsor, marker = payload
        replica.unserved.clear()
        if sponsor == self.node_id:
            done = replica.sponsor_done
            if done is not None and replica.sponsor_marker == marker:
                replica.sponsor_done = None
                done()
            return
        self._consider_capture(replica, FullStateCapture.from_value(value), sponsor)

    def _deliver_state_chunk(self, replica, payload, order_key):
        _, group, sponsor, marker, frame = payload
        assembler = self._assemblers.setdefault(
            (group, sponsor, marker), IncrementalAssembler()
        )
        try:
            assembler.add_frame(frame)
        except WireFormatError:
            self.ep.emit(
                "ft.state.chunk.error",
                {"node": self.node_id, "group": group, "sponsor": sponsor},
            )

    def _deliver_state_end(self, replica, payload, order_key):
        _, group, sponsor, marker = payload
        assembler = self._assemblers.pop((group, sponsor, marker), None)
        if assembler is None or not assembler.complete():
            self.ep.emit("ft.state.chunk.incomplete", {"group": group})
            return
        replica.unserved.clear()
        value = assembler.assemble()
        self._consider_capture(replica, FullStateCapture.from_value(value), sponsor)
