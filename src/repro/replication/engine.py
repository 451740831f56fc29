"""The Eternal replication engine: interception, styles, consistency.

One :class:`ReplicationEngine` runs per node.  It wires together the three
planes the paper's architecture describes:

- **Interception**: it installs itself as the node ORB's router, so every
  GIOP Request aimed at a group reference is diverted -- as encoded GIOP
  bytes, exactly like Eternal's IIOP interception -- into the group
  communication system instead of a TCP connection.  Application and ORB
  code are unchanged.
- **Replication mechanisms**: per hosted replica it executes the style
  logic (active / warm passive / cold passive / semi-active), duplicate
  suppression on both the sender and receiver sides, nested-operation
  identifier propagation, passive state updates, cold checkpoints, and
  view-driven failover.
- **Recovery mechanisms**: sponsor-side state capture (blocking or
  chunked incremental) for joining replicas, buffered catch-up at the
  joiner, and partition-remerge reconciliation with fulfillment
  operations.

Everything the engine decides is a deterministic function of the totally
ordered delivery stream, which is what makes the replicas consistent.
"""

from repro.orb.cdr import encode_value
from repro.orb.giop import decode_message, encode_message
from repro.orb.idl import interface_of
from repro.partition.fulfillment import FulfillmentPlan, divergent_operations
from repro.partition.primary import (
    derive_side_representative,
    should_adopt_capture,
)
from repro.orb.ior import IOR, FTGroupProfile
from repro.replication.duplicates import COMPLETED, OperationTable
from repro.replication.election import choose_primary
from repro.replication.identifiers import (
    ExecutionContext,
    OperationIdAllocator,
    fulfillment_operation_id,
)
from repro.replication.leases import LeaseGrantor, LeaseManager
from repro.replication.reads import LocalReadPort, ReadCoordinator
from repro.replication.replica import ExecutionTask, LocalReplica
from repro.replication.rings import RingMap
from repro.replication.styles import GroupPolicy, ReplicationStyle
from repro.state.three_tier import FullStateCapture
from repro.state.transfer import IncrementalAssembler, IncrementalTransfer
from repro.telemetry import span_id_for_operation
from repro.wire.framing import WireFormatError

# Envelope kinds shipped over the process-group layer.
REQUEST = "ft-request"
REPLY = "ft-reply"
EXTERNAL_REPLY = "ft-ext-reply"
STATE_UPDATE = "ft-state-update"
STATE_UPDATE_IMAGE = "ft-state-update-image"
CHECKPOINT = "ft-checkpoint"
STATE_FULL = "ft-state-full"
STATE_CHUNK = "ft-state-chunk"
STATE_END = "ft-state-end"
RECONCILED = "ft-reconciled"
RESYNC = "ft-resync"
RESYNC_STATE = "ft-resync-state"
POLICY = "ft-policy"

_ENVELOPE_OVERHEAD = 64


class GroupRouter:
    """ORB router diverting group references into the engine."""

    def __init__(self, engine, fallback):
        self.engine = engine
        self.fallback = fallback

    def send_request(self, ior, request, future):
        if ior.is_group_reference():
            read_context = request.service_context.get("read")
            if (read_context is not None
                    and self.engine.reads.wants_local(read_context)
                    and not isinstance(self.engine.orb.current_context,
                                       ExecutionContext)):
                # A declared read annotated for the local path.  Reads
                # issued from *inside* replicated execution stay ordered:
                # each replica would otherwise observe a different local
                # state and diverge.
                self.engine.reads.send_read(ior, request, future)
                return
            self.engine.send_group_request(ior, request, future)
            return
        context = self.engine.orb.current_context
        if (isinstance(context, ExecutionContext)
                and context.group in self.engine.replicas):
            # A replicated operation invoking an *unreplicated* external
            # object: only the group leader performs the real interaction;
            # the result is propagated to the peers in total order so every
            # replica resumes deterministically.
            self.engine.send_external_request(ior, request, future, context)
            return
        self.fallback.send_request(ior, request, future)

    def _with_connection(self, profile, action, on_error):
        self.fallback._with_connection(profile, action, on_error)

    def drop_route(self, request_id):
        self.fallback.drop_route(request_id)

    def close(self):
        self.fallback.close()


class _Invocation:
    """A request issued here and awaiting its reply."""

    __slots__ = ("request_id", "future", "ack_key", "retry_timer")

    def __init__(self, request_id, future, ack_key=None):
        self.request_id = request_id
        self.future = future
        # (destination group, client group) the resolution is owed to as
        # an acknowledgement, if it can be acknowledged at all.
        self.ack_key = ack_key
        self.retry_timer = None


class ReplicationEngine:
    """Eternal mechanisms at one node.

    Args:
        orb: the node's ORB (its router is replaced -- interception).
        group_member: the node's process-group endpoint -- either one
            :class:`~repro.totem.process_groups.GroupMember` (single-ring
            topology) or a dict ``{ring_id: GroupMember}`` when this node
            participates in several shard rings.
        domain: fault-tolerance domain name recorded in group IORs.
        client_group: name of this node's client object group.  Replicated
            clients share one name across their hosting nodes; by default
            each node forms a singleton client group.
        ring_map: the domain's :class:`~repro.replication.rings.RingMap`
            (shared with the manager and the gateways); defaults to a
            map over exactly this node's rings.
    """

    def __init__(self, orb, group_member, domain="ft-domain", client_group=None,
                 request_retry_timeout=0.5, request_retry_limit=3,
                 sender_side_suppression=True, merge_stall_timeout=0.25,
                 ring_map=None):
        self.orb = orb
        self.ep = orb.ep
        self._telemetry = self.ep.telemetry
        self.node_id = orb.node_id
        self.domain = domain
        if isinstance(group_member, dict):
            self._ring_members = dict(group_member)
        else:
            ring_id = getattr(group_member.processor, "ring_id", 0)
            self._ring_members = {ring_id: group_member}
        self._default_ring = min(self._ring_members)
        # Compatibility alias: the default ring's member.  Single-ring
        # callers (and tests that stub out `.send`) keep working unchanged.
        self.groups = self._ring_members[self._default_ring]
        self.ring_map = ring_map if ring_map is not None else RingMap(
            tuple(self._ring_members)
        )
        # FT-CORBA-style request retransmission: if a reply does not arrive
        # (e.g. it was delivered only in a configuration this node was not
        # part of), the request is re-multicast with the same operation
        # identifier -- duplicate suppression makes the retry safe, and a
        # primary that already executed it re-sends the cached reply.
        self.request_retry_timeout = request_retry_timeout
        self.request_retry_limit = request_retry_limit
        # Ablation knob (benchmark A1): with sender-side suppression off,
        # replicas never withdraw queued duplicates nor skip sends they
        # know are redundant; receiver-side suppression alone keeps the
        # system correct, at the cost of extra wire traffic.
        self.sender_side_suppression = sender_side_suppression
        # Upper bound on the remerge request stall (see _stall_for_merge):
        # normally released much sooner by the sponsor's capture.
        self.merge_stall_timeout = merge_stall_timeout
        self.replicas = {}
        self.client_group = client_group or ("client/%s" % self.node_id)
        self.allocator = OperationIdAllocator(self.client_group)
        # op id -> _Invocation awaiting a reply at this node.
        self.pending = {}
        # Client-side suppression state: operations of a client group this
        # node is in that it may yet (re-)issue itself -> the delivered
        # reply bytes, or None while only the request has been seen.
        self.client_ops = {}
        # Reply acknowledgements owed: (destination group, client group) ->
        # sequence numbers of ("c", client group, n) operations resolved
        # here since the last request sent there.
        self._resolved = {}
        # destination group -> last allocator sequence number sent there.
        self._last_sent = {}
        # (servant class, operation) -> does it modify state?
        self._modifies = {}
        # Incremental-transfer reassembly: (group, sponsor, marker) -> assembler.
        self._assemblers = {}
        # Interception: divert group-addressed requests, keep the direct
        # path for plain IIOP references.
        orb.router = GroupRouter(self, orb.router)
        # Local read path: lease state (holder + granter sides) and the
        # read coordinator, with their per-node plain-IIOP servants.
        self.leases = LeaseManager(self)
        self.reads = ReadCoordinator(self)
        orb.poa._servants.setdefault(LeaseGrantor.OBJECT_KEY,
                                     LeaseGrantor(self))
        orb.poa._servants.setdefault(LocalReadPort.OBJECT_KEY,
                                     LocalReadPort(self))
        # Client groups are joined on *every* ring this node runs: replies
        # from object groups on any ring then reach the client directly on
        # that ring, with no cross-ring forwarding hop.
        self._client_groups = {self.client_group}
        # Replica groups acting as *clients* across rings (a nested call
        # from a group homed on ring A to a group homed on ring B) join
        # their own group name on the server's ring lazily, so the reply
        # multicast there reaches them; rid -> joined group names.
        self._cross_ring_client_joins = {}
        for rid, member in self._ring_members.items():
            member.on_message = self._on_group_message
            member.on_view = (
                lambda view, _rid=rid: self._on_view(view, _rid)
            )
            member.on_config_cb = (
                lambda event, _rid=rid: self._on_ring_config(_rid, event)
            )
            member.join(self.client_group)
        # A process crash loses all replica and suppression state; the
        # recovered incarnation rejoins its client group empty, and the
        # ReplicationManager re-hosts replicas (ready=False) explicitly.
        self.ep.on_crash(lambda _n: self._on_node_crash())
        self.ep.on_recover(lambda _n: self._on_node_recover())

    def _on_node_crash(self):
        for group in list(self.replicas):
            self.orb.poa._servants.pop("group:%s" % group, None)
        self.replicas.clear()
        self.pending.clear()
        self.client_ops.clear()
        self._resolved.clear()
        self._assemblers.clear()
        self._cross_ring_client_joins.clear()
        self.leases.on_crash()

    def _on_node_recover(self):
        for member in self._ring_members.values():
            for name in self._client_groups:
                member.join(name)
        self.leases.on_recover()

    # ------------------------------------------------------------------
    # Ring routing
    # ------------------------------------------------------------------

    def _ring_of(self, group):
        """The shard ring that orders ``group``'s traffic."""
        return self.ring_map.ring_of(group)

    def _member_for(self, group):
        """The group-communication endpoint for ``group``'s home ring."""
        rid = self._ring_of(group)
        member = self._ring_members.get(rid)
        if member is None:
            raise ValueError(
                "node %s is not in ring %d of group %r"
                % (self.node_id, rid, group))
        return member

    def participates_in(self, group):
        """True when this node runs the ring that orders ``group``."""
        return self._ring_of(group) in self._ring_members

    def join_client_group(self, name):
        """Join an additional client (reply) group on every ring."""
        self._client_groups.add(name)
        for member in self._ring_members.values():
            member.join(name)

    def _reply_members(self, client_group, server_group):
        """Endpoints a reply must be multicast on.

        The reply always travels the server group's ring (where the
        request was ordered and the server-side duplicate tables live).
        When the client group is itself an object group homed on a
        *different* ring -- a replicated client invoking across rings --
        the reply is additionally multicast on the client's home ring,
        because its members only join their own group there.  Receiver-
        side duplicate suppression keeps the dual send exactly-once.
        """
        members = []
        server_ring = self._ring_of(server_group)
        server_member = self._ring_members.get(server_ring)
        if server_member is not None:
            members.append(server_member)
        if self.ring_map.is_assigned(client_group):
            client_ring = self._ring_of(client_group)
            if client_ring != server_ring:
                client_member = self._ring_members.get(client_ring)
                if client_member is not None:
                    members.append(client_member)
        return members

    # ------------------------------------------------------------------
    # Hosting replicas
    # ------------------------------------------------------------------

    def host_replica(self, group, servant, policy=None, ready=True):
        """Host a replica of ``group`` with the given servant.

        ``ready=True`` marks a bootstrap replica (initialized by
        construction); ``ready=False`` marks an added or recovering replica
        that must receive a state capture from the group before serving.
        Returns the group IOR.
        """
        if group in self.replicas:
            raise ValueError("node %s already hosts a replica of %s"
                             % (self.node_id, group))
        policy = policy or GroupPolicy()
        replica = LocalReplica(self, group, servant, policy, ready)
        self.replicas[group] = replica
        self.orb.poa._servants["group:%s" % group] = servant
        self._member_for(group).join(group)
        self.ep.emit("ft.host", {"group": group, "node": self.node_id,
                                  "style": policy.style, "ready": ready})
        return self.group_ior(group, servant)

    def unhost_replica(self, group):
        """Withdraw this node's replica of a group."""
        replica = self.replicas.pop(group, None)
        if replica is None:
            return
        self.leases.drop(group)
        self.orb.poa._servants.pop("group:%s" % group, None)
        self._member_for(group).leave(group)

    def group_ior(self, group, servant_or_type_id="IDL:Object:1.0"):
        """Build the group reference clients invoke."""
        if isinstance(servant_or_type_id, str):
            type_id = servant_or_type_id
        else:
            type_id = interface_of(servant_or_type_id).repository_id
        return IOR(type_id, [FTGroupProfile(self.domain, group)])

    def replica(self, group):
        return self.replicas.get(group)

    # ------------------------------------------------------------------
    # Client side: outgoing group requests
    # ------------------------------------------------------------------

    def send_group_request(self, ior, request, future, operation_id=None,
                           client_group=None):
        """Multicast a group-addressed GIOP request on its home ring.

        ``operation_id`` / ``client_group`` override the derived values;
        gateways use this to stamp deterministic operation ids shared by
        every gateway replica (so retried/rerouted client requests are
        duplicate-suppressed domain-wide).
        """
        group = ior.group_profile().group_name
        ack, ack_key = (), None
        if operation_id is None:
            context = self.orb.current_context
            if isinstance(context, ExecutionContext):
                operation_id = context.next_nested_id()
                client_group = context.group
            else:
                operation_id = self.allocator.next_top_level()
                client_group = client_group or self.client_group
                if client_group == operation_id[1]:
                    ack_key = (group, client_group)
                    ack = self._take_ack(ack_key, operation_id[2])
        elif client_group is None:
            client_group = self.client_group
        request.service_context["FT"] = {
            "op": operation_id,
            "client": client_group,
            "dest": group,
        }
        data = encode_message(request)
        payload = (REQUEST, group, client_group, operation_id, data, False,
                   ack)
        # The invocation span opens here -- this is the interception point
        # where the request left the ORB for the group communication path.
        span = None
        if request.response_expected:
            span = span_id_for_operation(operation_id)
            self._telemetry.span_start(span, self.ep.now,
                                       ring=self._ring_of(group))
            self.pending[operation_id] = _Invocation(request.request_id,
                                                     future, ack_key)
            self.orb._pending[request.request_id] = future
            self._arm_request_retry(payload, 0)
        else:
            future.set_result(None)
            self._note_resolved(ack_key, operation_id)
        # Sender-side suppression: a peer replica of this client may already
        # have multicast the same logical operation (we deliver everything
        # sent to our client group).
        if operation_id in self.client_ops:
            cached = self.client_ops[operation_id]
            if cached is not None and request.response_expected:
                self._resolve_pending(operation_id, decode_message(cached))
            if self.sender_side_suppression:
                self.ep.emit("ft.request.suppressed_at_sender",
                              {"op": repr(operation_id)})
                return
        self.ep.emit("ft.request.sent", {"group": group, "node": self.node_id})
        self._ensure_reply_membership(group, client_group)
        self._member_for(group).send(
            (group, client_group), payload,
            size=len(data) + _ENVELOPE_OVERHEAD,
            span=span,
        )

    def _take_ack(self, ack_key, sequence):
        """The ack field of request ``sequence`` to ``ack_key``'s group:
        the previous sequence number this client sent *there* (its
        allocator is shared across the groups it invokes; the ids in
        between were never addressed there, so the server closes the gap),
        then the sequence numbers resolved from there since.  Delivered in
        total order, it releases those cached replies at every server
        replica identically.  Only this node's own ``("c", client group,
        n)`` ids are acknowledged: a nested or gateway-stamped operation
        may be re-issued under the same id by another replica of the
        invoker at any time, so its cached reply stays (see ROADMAP)."""
        previous = self._last_sent.get(ack_key[0], 0)
        self._last_sent[ack_key[0]] = sequence
        acks = self._resolved.pop(ack_key, ())
        return (previous, *acks) if previous or acks else ()

    def _note_resolved(self, ack_key, operation_id):
        """Owe the server group an acknowledgement of ``operation_id``."""
        if ack_key is not None:
            self.client_ops.pop(operation_id, None)
            self._resolved.setdefault(ack_key, []).append(operation_id[2])

    def _ensure_reply_membership(self, server_group, client_group):
        """Join ``client_group`` on the server's ring when invoking across.

        Node-local client groups and gateway tiers join every ring up
        front, but a *replica* group joins only its home ring.  When such
        a group invokes a server homed on a different ring, the server's
        replicas multicast the reply on their own ring only (they do not
        run the client's); without a membership there the reply reaches
        nobody and the request retries forever.  The join is lazy (first
        cross-ring invocation) and sticky for the process incarnation.
        """
        if client_group not in self.replicas:
            return
        rid = self._ring_of(server_group)
        if rid == self._ring_of(client_group):
            return
        joined = self._cross_ring_client_joins.setdefault(rid, set())
        if client_group in joined:
            return
        joined.add(client_group)
        self._ring_members[rid].join(client_group)

    def invoke_group(self, ior, operation, args=(), response_expected=True,
                     operation_id=None, client_group=None, timeout=None):
        """Build and send a group request directly (bypassing a stub).

        Returns the reply future.  Used by gateways forwarding decoded
        plain-IIOP requests with externally-derived operation ids.
        """
        from repro.orb.giop import RequestMessage
        from repro.orb.orb_core import Future

        request = RequestMessage(
            self.orb.next_request_id(),
            self.orb._object_key_for(ior),
            operation,
            encode_value(tuple(args)),
            response_expected=response_expected,
        )
        future = Future()
        future.request_id = request.request_id
        if response_expected and timeout != 0:
            self.orb._arm_request_timeout(request.request_id, operation,
                                          timeout)
        self.send_group_request(ior, request, future,
                                operation_id=operation_id,
                                client_group=client_group)
        return future

    # ------------------------------------------------------------------
    # External (unreplicated-target) invocations from replicated code
    # ------------------------------------------------------------------

    def send_external_request(self, ior, request, future, context):
        """Leader-performs semantics for plain-IOR targets.

        Every replica of ``context.group`` executes the same operation and
        reaches this point with the same deterministic operation id.  Only
        the group's current leader actually opens a connection and invokes
        the external object; it then multicasts the encoded GIOP reply to
        the group, and each replica resumes its suspended operation from
        that ordered delivery.  If the leader dies first, the next leader
        re-issues the call at the view change (external invocations are
        therefore at-least-once under leader failover, as with any system
        that cannot enroll the external party in its protocols).
        """
        replica = self.replicas[context.group]
        operation_id = context.next_nested_id()
        if request.response_expected:
            self.pending[operation_id] = _Invocation(request.request_id, future)
            self.orb._pending[request.request_id] = future
        else:
            future.set_result(None)
        replica.external_pending[operation_id] = (ior, request)
        self.ep.emit("ft.external.request", {"group": context.group,
                                              "leader": replica.primary})
        if replica.is_primary:
            self._perform_external(replica, operation_id, ior, request)

    def _perform_external(self, replica, operation_id, ior, request):
        from repro.gateway.gateway import _reply_from_future
        from repro.orb.orb_core import Future
        from repro.orb.giop import RequestMessage

        inner_future = Future()
        inner_request = RequestMessage(
            self.orb.next_request_id(),
            request.object_key,
            request.operation,
            request.body,
            response_expected=request.response_expected,
            service_context=dict(request.service_context),
        )
        if inner_request.response_expected:
            self.orb._pending[inner_request.request_id] = inner_future
            self.orb._arm_request_timeout(
                inner_request.request_id, inner_request.operation, None
            )

        def propagate(fut):
            reply = _reply_from_future(inner_request, fut)
            data = encode_message(reply)
            self._member_for(replica.group).send(
                (replica.group,),
                (EXTERNAL_REPLY, replica.group, operation_id, data),
                size=len(data) + _ENVELOPE_OVERHEAD,
            )

        if inner_request.response_expected:
            inner_future.add_done_callback(propagate)
            self.orb.router.fallback.send_request(ior, inner_request, inner_future)
        else:
            self.orb.router.fallback.send_request(ior, inner_request, inner_future)
            propagate(inner_future)

    def _deliver_external_reply(self, message, payload):
        _, group, operation_id, data = payload
        replica = self.replicas.get(group)
        if replica is not None:
            replica.external_pending.pop(operation_id, None)
        if operation_id in self.pending:
            self._resolve_pending(operation_id, decode_message(data))

    def _reissue_external_calls(self, replica):
        """New leader: re-perform external calls the old leader left open."""
        for operation_id, (ior, request) in list(replica.external_pending.items()):
            self.ep.emit("ft.external.reissue", {"group": replica.group})
            self._perform_external(replica, operation_id, ior, request)

    def _arm_request_retry(self, payload, attempt):
        _, group, client_group, operation_id, data = payload[:5]
        entry = self.pending[operation_id]
        if attempt >= self.request_retry_limit:
            entry.retry_timer = None
            return

        def retry():
            if self.pending.get(operation_id) is not entry:
                return  # resolved meanwhile
            self.ep.emit("ft.request.retry",
                          {"op": repr(operation_id), "attempt": attempt + 1})
            self._member_for(group).send(
                (group, client_group), payload,
                size=len(data) + _ENVELOPE_OVERHEAD,
            )
            self._arm_request_retry(payload, attempt + 1)

        entry.retry_timer = self.ep.timer(
            self.request_retry_timeout * (attempt + 1), retry, "ft.retry")

    def _resolve_pending(self, operation_id, reply):
        entry = self.pending.pop(operation_id, None)
        if entry is None:
            return False
        if entry.retry_timer is not None:
            entry.retry_timer.cancel()
        self._telemetry.span_finish(span_id_for_operation(operation_id),
                                    self.ep.now)
        self.orb.forget_pending(entry.request_id)
        self._note_resolved(entry.ack_key, operation_id)
        self.orb.resolve_future_from_reply(entry.future, reply)
        return True

    # ------------------------------------------------------------------
    # Delivery dispatch
    # ------------------------------------------------------------------

    def _on_group_message(self, message):
        payload = message.payload
        kind = payload[0]
        if kind == REQUEST:
            self._deliver_request(message, payload)
        elif kind == REPLY:
            self._deliver_reply(message, payload)
        elif kind == EXTERNAL_REPLY:
            self._deliver_external_reply(message, payload)
        elif kind == STATE_UPDATE:
            self._deliver_state_update(message, payload)
        elif kind == STATE_UPDATE_IMAGE:
            self._deliver_state_update_image(message, payload)
        elif kind == CHECKPOINT:
            self._deliver_checkpoint(message, payload)
        elif kind == STATE_FULL:
            self._deliver_state_full(message, payload)
        elif kind == STATE_CHUNK:
            self._deliver_state_chunk(message, payload)
        elif kind == STATE_END:
            self._deliver_state_end(message, payload)
        elif kind == RECONCILED:
            self._deliver_reconciled(message, payload)
        elif kind == RESYNC:
            self._deliver_resync(message, payload)
        elif kind == RESYNC_STATE:
            self._deliver_resync_state(message, payload)
        elif kind == POLICY:
            self._deliver_policy(message, payload)

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------

    def _deliver_request(self, message, payload):
        (_, dest_group, client_group, operation_id, data, fulfillment,
         ack) = payload
        if self._member_of(client_group):
            if message.sender != self.node_id or operation_id[0] != "c":
                # A peer replica of this client issued it (we may issue our
                # copy later), or it is a nested operation a re-execution
                # here would re-issue.  Our own top-level ids never recur.
                self.client_ops.setdefault(operation_id, None)
            if message.sender != self.node_id and self.sender_side_suppression:
                cancelled = self._cancel_queued_everywhere(
                    lambda p: p[0] == REQUEST and p[3] == operation_id
                )
                if cancelled:
                    self.ep.emit("ft.request.cancelled_queued",
                                  {"op": repr(operation_id)})
        replica = self.replicas.get(dest_group)
        if replica is None:
            return
        if not replica.ready or (replica.awaiting_merge_capture
                                 and not fulfillment):
            # Fulfillment requests bypass the merge stall: they carry the
            # secondary component's divergent operations and must execute
            # before the stalled (post-merge) requests are replayed.
            replica.buffered.append(("request", payload, message.order_key))
            return
        self._process_request(replica, operation_id, data, client_group,
                              fulfillment, message.order_key, ack)

    def _process_request(self, replica, operation_id, data, client_group,
                         fulfillment, order_key, ack=()):
        table = replica.table
        if ack:
            # Only sent with the client's own ("c", client_group, n) ids.
            table.retired.add_range(client_group, ack[0] + 1,
                                    operation_id[2] - 1)
            for sequence in ack[1:]:
                table.acknowledge(("c", client_group, sequence))
        status = table.status(operation_id)
        if status == COMPLETED:
            # Redundant invocation of a completed operation (typically a new
            # primary's re-invocation after failover): do not re-execute,
            # but re-transmit the response (unless the invoker acknowledged
            # it: then nobody is waiting).
            cached = table.cached_reply(operation_id)
            table.note_suppressed_request()
            self.ep.emit("ft.request.duplicate", {"group": replica.group})
            if cached is not None and replica.is_primary and not fulfillment:
                self._multicast_reply(replica, client_group, operation_id, cached)
            return
        if status is not None:
            table.note_suppressed_request()
            self.ep.emit("ft.request.duplicate", {"group": replica.group})
            return
        if fulfillment and operation_id and operation_id[0] == "f":
            # A fulfillment re-issues an operation its sender believed
            # only the secondary component completed.  If this replica
            # already ran the *original* -- it was in flight during the
            # ring change, buffered behind the merge stall, and replayed
            # ahead of the fulfillment in total order -- executing the
            # fulfillment too would double-apply the operation.
            if table.status(operation_id[1]) is not None:
                table.note_suppressed_request()
                self.ep.emit("ft.request.duplicate", {"group": replica.group})
                return
        pending = table.note_executing(operation_id, data, client_group,
                                       fulfillment, order_key)
        if replica.executes_here:
            task = ExecutionTask(replica, pending, self._run_task)
            replica.dispatcher.submit(task)

    def _run_task(self, task, done):
        replica = task.replica
        pending = task.pending
        if replica.table.status(pending.operation_id) == COMPLETED:
            done()  # completed meanwhile (state update beat the execution)
            return
        request = decode_message(pending.request_bytes)
        context = ExecutionContext(pending.operation_id, replica.group)
        epoch = replica.state_epoch
        context.should_abort = lambda: (
            replica.state_epoch != epoch
            or replica.table.status(pending.operation_id) == COMPLETED)
        replica.environment.current_operation_id = pending.operation_id
        pending.running = True
        task.request = request

        def respond(reply):
            if context.aborted:
                # The operation was superseded while its servant generator
                # was suspended on a nested call -- a capture adoption
                # either brought its completed effects or erased its
                # partial ones; either way the tail must not apply.
                self.ep.emit("ft.op.aborted", {"group": replica.group,
                                                "node": self.node_id})
                done()
                return
            self._on_executed(replica, task, request, reply, done)

        self.orb.poa.dispatch(request, respond, context=context)

    def _on_executed(self, replica, task, request, reply, done):
        pending = task.pending
        operation_id = pending.operation_id
        reply_bytes = None
        if reply is not None:
            reply.service_context["FT"] = {
                "op": operation_id,
                "client": pending.client_group,
                "server": replica.group,
            }
            reply_bytes = encode_message(reply)
        replica.complete(operation_id, pending.request_bytes,
                         pending.client_group, reply_bytes)
        self._telemetry.span_mark(span_id_for_operation(operation_id),
                                  "executed", self.ep.now)
        self.ep.emit("ft.op.executed", {"group": replica.group,
                                         "node": self.node_id})
        style = replica.policy.style
        modifies = self._modifies_state(replica, request)
        if style == ReplicationStyle.WARM_PASSIVE and replica.is_primary:
            if modifies or not replica.policy.read_only_skip_update:
                self._multicast_state_update(replica, operation_id,
                                             pending.client_group, reply_bytes)
        elif style == ReplicationStyle.COLD_PASSIVE and replica.is_primary:
            interval = replica.policy.checkpoint_interval_ops
            if interval and replica.ops_since_checkpoint >= interval:
                self._multicast_checkpoint(replica)
        if reply_bytes is not None and not pending.fulfillment and task.resend_reply:
            self._send_reply_with_suppression(replica, pending, reply_bytes)
        done()

    def _modifies_state(self, replica, request):
        key = (type(replica.servant), request.operation)
        modifies = self._modifies.get(key)
        if modifies is None:
            info = interface_of(replica.servant).operations.get(
                request.operation)
            modifies = self._modifies[key] = info is None or not info.read_only
        return modifies

    def _send_reply_with_suppression(self, replica, pending, reply_bytes):
        operation_id = pending.operation_id
        style = replica.policy.style
        if style == ReplicationStyle.SEMI_ACTIVE and not replica.is_primary:
            replica.table.note_suppressed_reply()
            self.ep.emit("ft.reply.suppressed_follower", {"group": replica.group})
            return
        if (replica.table.reply_already_seen(operation_id)
                and self.sender_side_suppression):
            replica.table.note_suppressed_reply()
            self.ep.emit("ft.reply.suppressed_at_sender", {"group": replica.group})
            return
        self._multicast_reply(replica, pending.client_group, operation_id,
                              reply_bytes)

    def _multicast_reply(self, replica, client_group, operation_id, reply_bytes):
        self.ep.emit("ft.reply.sent", {"group": replica.group,
                                        "node": self.node_id})
        for member in self._reply_members(client_group, replica.group):
            member.send(
                (client_group, replica.group),
                (REPLY, client_group, replica.group, operation_id, reply_bytes),
                size=len(reply_bytes) + _ENVELOPE_OVERHEAD,
            )

    # ------------------------------------------------------------------
    # Replies
    # ------------------------------------------------------------------

    def _deliver_reply(self, message, payload):
        _, client_group, server_group, operation_id, data = payload
        if self._member_of(client_group):
            if operation_id in self.client_ops:
                self.client_ops[operation_id] = data
            if operation_id in self.pending:
                self._resolve_pending(operation_id, decode_message(data))
        replica = self.replicas.get(server_group)
        if replica is not None:
            first_time = not replica.table.reply_already_seen(operation_id)
            replica.table.note_reply_seen(operation_id)
            if (message.sender != self.node_id and first_time
                    and self.sender_side_suppression):
                cancelled = self._cancel_queued_everywhere(
                    lambda p: p[0] == REPLY and p[3] == operation_id
                )
                if cancelled:
                    replica.table.note_suppressed_reply()
                    self.ep.emit("ft.reply.cancelled_queued",
                                  {"group": server_group})

    # ------------------------------------------------------------------
    # Passive state updates / checkpoints
    # ------------------------------------------------------------------

    def _multicast_state_update(self, replica, operation_id, client_group,
                                reply_bytes):
        if replica.policy.update_mode == "image":
            image = self._take_update_image(replica)
            if image is not None:
                self.ep.emit("ft.state.update.image.sent",
                              {"group": replica.group})
                size = len(encode_value(image)) + _ENVELOPE_OVERHEAD
                self._member_for(replica.group).send(
                    (replica.group,),
                    (STATE_UPDATE_IMAGE, replica.group, operation_id,
                     replica.ops_applied, image, reply_bytes, client_group),
                    size=size,
                )
                return
        state = replica.servant.get_state()
        self.ep.emit("ft.state.update.sent", {"group": replica.group})
        size = len(encode_value(state)) + _ENVELOPE_OVERHEAD
        self._member_for(replica.group).send(
            (replica.group,),
            (STATE_UPDATE, replica.group, operation_id, replica.ops_applied,
             state, reply_bytes, client_group),
            size=size,
        )

    @staticmethod
    def _take_update_image(replica):
        """The servant's post-image of its last update, if it offers one."""
        getter = getattr(replica.servant, "get_update_image", None)
        if getter is None:
            return None
        return getter()

    def _deliver_state_update(self, message, payload):
        _, group, operation_id, position, state, reply_bytes, client_group = payload
        replica = self.replicas.get(group)
        if replica is None:
            return
        if not replica.ready:
            replica.buffered.append(("update", payload, message.order_key))
            return
        if replica.table.status(operation_id) == COMPLETED:
            return  # we executed this ourselves (we are the primary)
        if position != replica.ops_applied + 1:
            # Updates apply only contiguously.  ``position`` is the number
            # of operations the sender's state embodies; each apply here
            # advances ``ops_applied`` by one, so in a healthy ring every
            # update arrives at exactly ``ops_applied + 1``.  Anything else
            # means a partition intervened.  A *regression* is an old
            # snapshot surfacing late (ring-merge recovery, or the
            # sender's send queue draining after a re-form): applying it
            # would wholesale-rewind the servant.  A *gap* is worse: the
            # missing intermediate updates died on a ring this replica
            # never ran, so the snapshot silently embeds effects of
            # operations the duplicate tables never saw completed -- a
            # later fulfillment would re-apply them (a double execution).
            # Drop either; for a gap, additionally ask the primary for a
            # fresh capture so this backup converges without waiting for
            # the next membership change.
            self.ep.emit("ft.state.update.stale", {"group": group,
                                                    "node": self.node_id})
            if position > replica.ops_applied + 1:
                self._request_resync(replica)
            return
        replica.servant.set_state(state)
        replica.complete(operation_id, None, client_group, reply_bytes)
        self.ep.emit("ft.state.update.applied", {"group": group,
                                                  "node": self.node_id})

    def _deliver_state_update_image(self, message, payload):
        _, group, operation_id, position, image, reply_bytes, client_group = payload
        replica = self.replicas.get(group)
        if replica is None:
            return
        if not replica.ready:
            replica.buffered.append(("update-image", payload, message.order_key))
            return
        if replica.table.status(operation_id) == COMPLETED:
            return  # we executed this ourselves (we are the primary)
        if position != replica.ops_applied + 1:
            # Same contiguity rule as full-state updates; for an image it
            # matters even more, since a delta applied on a base it was
            # never computed against corrupts state outright.
            self.ep.emit("ft.state.update.stale", {"group": group,
                                                    "node": self.node_id})
            if position > replica.ops_applied + 1:
                self._request_resync(replica)
            return
        replica.servant.apply_update_image(image)
        replica.complete(operation_id, None, client_group, reply_bytes)
        self.ep.emit("ft.state.update.image.applied",
                      {"group": group, "node": self.node_id})

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

    def _deliver_resync(self, message, payload):
        _, group, requester = payload
        replica = self.replicas.get(group)
        if replica is None or requester == self.node_id:
            return
        if not (replica.ready and replica.is_primary):
            return
        engine = self

        class ResyncTask:
            # Riding the dispatcher orders the capture after every
            # execution already in flight, so the snapshot's ops_applied
            # matches the update positions the requester will see next.
            cost = 0.0
            pending = None

            def run(self, done):
                engine._send_resync_state(replica, requester)
                done()

        replica.dispatcher.submit(ResyncTask())

    def _send_resync_state(self, replica, requester):
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

    def _deliver_resync_state(self, message, payload):
        _, group, value, sponsor, target = payload
        if target != self.node_id:
            return
        replica = self.replicas.get(group)
        if replica is None or not replica.resync_pending or not replica.ready:
            return
        capture = FullStateCapture.from_value(value)
        # Ops this backup completed that the primary's capture lacks
        # (executed while it was a side primary) become fulfillments,
        # exactly as in a merge adoption; for a plain lagging backup the
        # plan is empty.
        plan = self._fulfillment_plan(replica, capture)
        self._adopt_capture(replica, capture)
        self._apply_captured_pending(replica, capture)
        self.ep.emit("ft.resync.adopted", {"group": group,
                                            "node": self.node_id,
                                            "fulfillment": len(plan)})
        self._multicast_fulfillment(replica, plan)

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

    def _deliver_checkpoint(self, message, payload):
        _, group, value = payload
        replica = self.replicas.get(group)
        if replica is None:
            return
        if not replica.ready:
            replica.buffered.append(("checkpoint", payload, message.order_key))
            return
        if message.sender == self.node_id:
            return  # primary already reset its own counters when sending
        self._adopt_capture(replica, FullStateCapture.from_value(value),
                            checkpoint=True)
        self.ep.emit("ft.checkpoint.applied", {"group": group,
                                                "node": self.node_id})

    # ------------------------------------------------------------------
    # View changes: failover, sponsorship
    # ------------------------------------------------------------------

    def _on_ring_config(self, ring_id, event):
        """One ring's configuration changes: fix partition sides from EVS.

        The transitional configuration names exactly the processors that
        moved together from the old ring -- the replica's partition
        component.  The side representative derived here stays frozen
        through the post-change view rebuild (whose intermediate views say
        nothing about sides) until reconciliation re-derives it.

        Each shard ring runs its own membership protocol, so the event
        only concerns replicas whose group is homed on ``ring_id``:
        a merge barrier on one ring must not stall groups ordered by a
        different, unaffected ring.
        """
        from repro.totem.events import TransitionalConfiguration

        if not isinstance(event, TransitionalConfiguration):
            return
        transitional = set(event.members)
        new_ring_members = set(event.new_ring_key[1])
        for replica in self.replicas.values():
            if not replica.ready:
                continue
            if self._ring_of(replica.group) != ring_id:
                continue
            was_stalled = replica.awaiting_merge_capture
            # Only hosts that moved with us from the old ring share our
            # history; a view member outside the transitional component
            # (we listed it, but it never installed that ring) needs a
            # capture like any other joiner.
            replica.pre_change_members = (
                (set(replica.members) & transitional) | {self.node_id})
            # A ring change may have cut off an outstanding resync request
            # (or the merge reconciliation now underway supersedes it);
            # re-arm so the next gapped update can retry.
            replica.resync_pending = False
            # Mid-merge -- stalled, or released by timeout with the
            # reconciliation still owed -- the representative stays frozen
            # at its pre-merge value: a second ring change can put both
            # sides in one transitional component, and re-deriving there
            # would collapse side_rep to the ring minimum before the
            # capture arrives, permanently disabling the adoption rule
            # (sponsor < side_rep).  The freeze is only sound while we
            # travel with our representative: once the churn separates us
            # from it (or it crashed), deliveries reach its component but
            # not ours, and claiming primacy through it would refuse its
            # side's capture at the next merge.  Then, as outside a merge,
            # re-derive from the component we verifiably moved with.
            frozen = was_stalled or replica.merge_unreconciled
            if not frozen or (replica.side_rep is not None
                              and replica.side_rep != self.node_id
                              and replica.side_rep not in transitional):
                replica.side_rep = derive_side_representative(
                    replica.members, transitional, self.node_id
                )
            # Remerge barrier.  A new-ring member outside our transitional
            # component that we know hosts this group means components with
            # divergent histories just merged: the secondary side adopts
            # the primary side's capture and re-issues its divergent
            # operations as fulfillment requests.  *Both* sides stall
            # ordinary request execution until a RECONCILED marker has
            # been delivered from every known host -- total order then
            # guarantees all fulfillments execute before any stalled
            # request is replayed, so no reply is computed from a state
            # missing the other side's operations.  (The group view cannot
            # drive this -- it is rebuilt incrementally from announces
            # after requests can already have been delivered.)
            outside_hosts = (
                (new_ring_members - transitional) & replica.ever_members
            )
            if outside_hosts:
                awaiting = ((new_ring_members & replica.ever_members)
                            | {self.node_id})
                replica.merge_outside = outside_hosts
                replica.merge_since = event.new_ring_key[0]
                self._stall_for_merge(replica, awaiting, event.new_ring_key)
                if min(outside_hosts) > replica.side_rep:
                    # Primary side: no capture binds us; announce at once
                    # (again on mid-merge ring churn -- announcements sent
                    # in the previous ring may have been cut off with it).
                    # The secondary side announces after adopting ours.
                    self._multicast_reconciled(replica)
            elif was_stalled:
                # The ring churned mid-merge and the components now travel
                # in one transitional component, but the reconciliation
                # itself (capture, fulfillments, announcements) is still
                # pending -- it continues in the new ring.  Keep the stall
                # with a fresh safety timer, and repeat our announcement
                # if we had already made one: it may have been cut off
                # with the previous ring.
                self._stall_for_merge(replica, replica.merge_await,
                                      event.new_ring_key)
                if replica.merge_announced:
                    self._multicast_reconciled(replica)

    def _on_view(self, view, ring_id=None):
        replica = self.replicas.get(view.group)
        if replica is None:
            return
        if ring_id is not None and self._ring_of(view.group) != ring_id:
            # A cross-ring *client* membership of this replica group (see
            # _ensure_reply_membership): the foreign ring's view of the
            # group says nothing about the replication membership, which
            # is defined solely by the group's home ring.
            return
        replica.previous_members = replica.members
        replica.members = view.members
        replica.ever_members |= set(view.members)
        old = set(replica.previous_members)
        new = set(view.members)
        joiners = new - old
        new_ring = view.ring_key != getattr(replica, "view_ring_key", None)
        replica.view_ring_key = view.ring_key
        self.ep.emit("ft.view", {"group": view.group,
                                  "members": list(view.members)})
        if replica.ready and replica.side_rep is None and new:
            # Bootstrap (no transitional configuration has occurred yet).
            replica.side_rep = min(new | {self.node_id})
        if replica.ready and not new_ring and new:
            # Same-ring view changes are group joins/leaves; a leave that
            # removed our representative moves it to the next survivor.
            if (replica.side_rep not in new and new <= old
                    and not replica.merge_unreconciled):
                replica.side_rep = min(new)
        if replica.ready and joiners - {self.node_id}:
            pre_change = getattr(replica, "pre_change_members", set(old))
            needy = joiners - {self.node_id} - pre_change
            if needy and replica.side_rep == self.node_id:
                self._schedule_sponsorship(replica)
        if replica.ready and ReplicationStyle.is_passive(replica.policy.style):
            old_primary = choose_primary(old) if old else None
            if replica.is_primary and old_primary != self.node_id:
                self._fail_over(replica)
        if replica.ready and replica.is_primary and replica.external_pending:
            old_primary = choose_primary(old) if old else None
            if old_primary != self.node_id:
                self._reissue_external_calls(replica)
        # Lease renewal tracks the view: a new primary starts requesting
        # grants (it cannot *hold* the lease until the old primary's
        # grants expire at every backup); a demoted one stops.
        self.leases.sync(replica)

    def _fail_over(self, replica):
        """This node became the passive primary: finish uncovered work."""
        self.ep.emit("ft.failover", {"group": replica.group,
                                      "node": self.node_id})
        for pending in replica.table.pending_in_order():
            if pending.running:
                continue
            task = ExecutionTask(replica, pending, self._run_task,
                                 resend_reply=not pending.reply_seen)
            replica.dispatcher.submit(task)

    # ------------------------------------------------------------------
    # Online policy retuning
    # ------------------------------------------------------------------

    def send_policy_update(self, group, changes):
        """Multicast a totally-ordered policy change to a hosted group.

        Every replica applies the change at the same position in the
        delivery order, so a style switch never leaves the group with a
        mixed view of who executes: all members agree on which requests
        precede the switch (old style governs them) and which follow it.
        ``changes`` are :class:`GroupPolicy` field overrides -- typically
        ``style`` or ``checkpoint_interval_ops``.
        """
        changes = dict(changes)
        known = set(GroupPolicy().__dict__)
        unknown = sorted(set(changes) - known)
        if unknown:
            raise ValueError("unknown policy fields: %s" % ", ".join(unknown))
        GroupPolicy().copy(**changes)  # validates values (e.g. the style)
        self.ep.emit("ft.policy.sent", {"group": group,
                                         "changes": sorted(changes)})
        self._member_for(group).send(
            (group,),
            (POLICY, group, changes),
            size=_ENVELOPE_OVERHEAD,
        )

    def _deliver_policy(self, message, payload):
        _, group, changes = payload
        replica = self.replicas.get(group)
        if replica is None:
            return
        if not replica.ready or replica.awaiting_merge_capture:
            # Ordered with the stalled requests: on replay the policy
            # switches styles at the same relative position everywhere.
            replica.buffered.append(("policy", payload, message.order_key))
            return
        self._apply_policy(replica, changes)

    def _apply_policy(self, replica, changes):
        executed_before = replica.executes_here
        replica.policy = replica.policy.copy(**changes)
        self.ep.emit("ft.policy.applied", {"group": replica.group,
                                            "node": self.node_id,
                                            "style": replica.policy.style,
                                            "changes": sorted(changes)})
        if not executed_before and replica.executes_here:
            # This replica starts executing (e.g. WARM_PASSIVE -> ACTIVE
            # at a backup): cover every delivered-but-uncompleted request
            # exactly as a passive failover would, so nothing delivered
            # before the switch is lost and nothing is double-applied
            # (the runner re-checks completion before executing).
            uncovered = 0
            for pending in replica.table.pending_in_order():
                if pending.running:
                    continue
                uncovered += 1
                task = ExecutionTask(replica, pending, self._run_task,
                                     resend_reply=not pending.reply_seen)
                replica.dispatcher.submit(task)
            self.ep.emit("ft.policy.replay", {"group": replica.group,
                                               "node": self.node_id,
                                               "n": uncovered})
        # Lease eligibility depends on the style (leader_serves_reads).
        self.leases.sync(replica)

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
        engine = self

        class SponsorTask:
            cost = 0.0
            pending = None

            def run(self, done):
                engine._send_state_capture(replica, done)

        replica.dispatcher.submit(SponsorTask())

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
            replica._sponsor_done = done
            replica._sponsor_marker = marker
            self._member_for(replica.group).send(
                (replica.group,),
                (STATE_FULL, replica.group, value, self.node_id, marker),
                size=len(encoded) + _ENVELOPE_OVERHEAD,
            )
        else:
            transfer = IncrementalTransfer(value, replica.policy.chunk_bytes)
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

    def _deliver_state_full(self, message, payload):
        _, group, value, sponsor, marker = payload
        replica = self.replicas.get(group)
        if replica is None:
            return
        if sponsor == self.node_id:
            done = getattr(replica, "_sponsor_done", None)
            if done is not None and getattr(replica, "_sponsor_marker", None) == marker:
                replica._sponsor_done = None
                done()
            return
        self._consider_capture(replica, FullStateCapture.from_value(value), sponsor)

    def _deliver_state_chunk(self, message, payload):
        _, group, sponsor, marker, frame = payload
        replica = self.replicas.get(group)
        if replica is None or sponsor == self.node_id:
            return
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

    def _deliver_state_end(self, message, payload):
        _, group, sponsor, marker = payload
        replica = self.replicas.get(group)
        if replica is None or sponsor == self.node_id:
            return
        assembler = self._assemblers.pop((group, sponsor, marker), None)
        if assembler is None or not assembler.complete():
            self.ep.emit("ft.state.chunk.incomplete", {"group": group})
            return
        value = assembler.assemble()
        self._consider_capture(replica, FullStateCapture.from_value(value), sponsor)

    def _consider_capture(self, replica, capture, sponsor):
        """Decide whether a delivered capture binds this replica.

        - A not-yet-ready replica adopts any capture (preferring, if
          several arrive for a merge, the one whose sponsor is smallest --
          later smaller-sponsor captures re-adopt).
        - A ready replica adopts a capture only when it comes from a
          *different* partition side whose representative outranks ours:
          that side is the primary component, we were the secondary, and
          our divergent operations become fulfillment operations.
        """
        if not replica.ready:
            best = getattr(replica, "_adopted_sponsor", None)
            if best is not None and best <= sponsor:
                return
            replica._adopted_sponsor = sponsor
            self._adopt_capture(replica, capture)
            self._apply_captured_pending(replica, capture)
            self._make_ready(replica)
            return
        if not should_adopt_capture(sponsor, replica.side_rep, self.node_id):
            # Our own component's capture, or a capture from a component
            # whose representative is outranked by ours: we are (so far)
            # in the primary component for this group.  Any merge stall
            # is released by the RECONCILED barrier, not here.
            return
        # We are in the secondary component for this group: reconcile.
        # Requests stalled here since before the merge were delivered in
        # our component only.  They go back into the total order, as their
        # invoker's retry would send them, so that every host replays them
        # at one position (replayed from here they would run here alone).
        premerge = [entry for entry in replica.buffered
                    if entry[0] == "request" and not entry[1][5]
                    and entry[2][0] < replica.merge_since]
        replica.buffered = [entry for entry in replica.buffered
                            if entry not in premerge]
        plan = self._fulfillment_plan(replica, capture)
        self._adopt_capture(replica, capture)
        self._apply_captured_pending(replica, capture)
        # Adopt the sponsor as our representative: in a multi-way merge an
        # even smaller sponsor's capture may still arrive and re-adopt.
        replica.side_rep = sponsor
        # Our history now contains the primary side's: any reconciliation
        # debt left by an earlier timed-out stall is settled.
        replica.merge_unreconciled = set()
        self.ep.emit("ft.merge.adopted", {"group": replica.group,
                                           "node": self.node_id,
                                           "fulfillment": len(plan)})
        self._multicast_fulfillment(replica, plan)
        for _kind, payload, _order_key in premerge:
            self._member_for(replica.group).send(
                (replica.group, payload[2]), payload,
                size=len(payload[4]) + _ENVELOPE_OVERHEAD)
        # Announce after the fulfillments: every stalled replica holds its
        # buffered requests until RECONCILED has arrived from all known
        # hosts, and total order then places our divergent operations
        # before any of those requests.
        self._multicast_reconciled(replica)

    @staticmethod
    def _fulfillment_plan(replica, capture):
        """Our journal minus what the capture's side completed."""
        return FulfillmentPlan(replica.group, divergent_operations(
            replica.table.completed_in_order(),
            OperationTable.completed_in(capture.infrastructure)))

    def _multicast_fulfillment(self, replica, plan):
        for original_op, request_bytes, client_group in plan:
            fulfillment_op = fulfillment_operation_id(original_op, 0)
            if replica.table.status(fulfillment_op) == COMPLETED:
                continue
            self.ep.emit("ft.fulfillment.sent", {"group": replica.group})
            self._member_for(replica.group).send(
                (replica.group, client_group or self.client_group),
                (REQUEST, replica.group, client_group or self.client_group,
                 fulfillment_op, request_bytes, True, ()),
                size=len(request_bytes) + _ENVELOPE_OVERHEAD,
            )

    def _apply_captured_pending(self, replica, capture):
        """Execute the sponsor's in-flight requests carried by a capture.

        Requests delivered to the sponsor's component before the merge
        (or before a joiner joined) are not in the adopter's own delivery
        sequence and not yet part of the captured completed state; the
        adopter runs them here so its next execution starts from the same
        point as the sponsor's.  Duplicate suppression makes this safe
        when the adopter saw some of them itself.
        """
        for op, request_bytes, client_group, order_key in (
                capture.infrastructure["pending"]):
            if replica.table.status(op) != COMPLETED:
                self._process_request(replica, op, bytes(request_bytes),
                                      client_group, False, order_key)

    def _adopt_capture(self, replica, capture, checkpoint=False):
        # Wholesale state replacement invalidates every execution in
        # flight here: a servant generator suspended on a nested call
        # would otherwise resume against the adopted state and re-apply
        # its remaining effects (which the capture may already include),
        # or apply a tail whose earlier effects the capture erased.
        # Bumping the epoch makes each in-flight context's abort hook
        # fire at its next resume.
        replica.state_epoch += 1
        interrupted = [r for r in replica.table.pending_in_order() if r.running]
        replica.servant.set_state(capture.application)
        replica.adopt_infrastructure_state(capture.infrastructure)
        # Any wholesale adoption heals a passive-update gap.
        replica.resync_pending = False
        if checkpoint:
            replica.ops_since_checkpoint = 0
        # Interrupted operations the capture covers neither as completed
        # nor (shortly, via the pending tier) as in-flight were delivered
        # only here: re-execute them from scratch on the adopted state,
        # in delivery order, or they would be lost with the aborted
        # generators.  They stay marked executing, so
        # _apply_captured_pending suppresses the capture's copy of any of
        # them and execution order follows delivery order.
        for pending in interrupted:
            if replica.table.live.get(pending.operation_id) is pending:
                task = ExecutionTask(replica, pending, self._run_task)
                replica.dispatcher.submit(task)

    def _make_ready(self, replica):
        replica.ready = True
        if replica.members:
            replica.side_rep = min(replica.members)
        replica.merge_unreconciled = set()
        self.ep.emit("ft.replica.ready", {"group": replica.group,
                                           "node": self.node_id,
                                           "replay": len(replica.buffered)})
        self._replay_buffered(replica)
        self.leases.sync(replica)

    def _replay_buffered(self, replica):
        buffered, replica.buffered = replica.buffered, []
        for kind, payload, order_key in buffered:
            if kind == "request":
                _, _, client_group, op, data, fulfillment, ack = payload
                self._process_request(replica, op, data, client_group,
                                      fulfillment, order_key, ack)
            elif kind == "update":
                self._deliver_state_update(_FakeMessage(order_key), payload)
            elif kind == "update-image":
                self._deliver_state_update_image(_FakeMessage(order_key), payload)
            elif kind == "checkpoint":
                self._deliver_checkpoint(_FakeMessage(order_key), payload)
            elif kind == "policy":
                self._apply_policy(replica, payload[2])

    # ------------------------------------------------------------------
    # Remerge stall: secondary components wait for the inbound capture
    # ------------------------------------------------------------------

    def _stall_for_merge(self, replica, awaiting, round_key):
        """Buffer ordinary request execution until the merge reconciles.

        Armed at a transitional configuration whose new ring readmits
        known group hosts from another component (see :meth:`_on_config`).
        ``awaiting`` names every host whose RECONCILED marker must be
        delivered before requests may execute again.  Re-arming while
        already stalled (the ring churned again mid-merge) refreshes the
        awaited set and the safety timer without replaying the buffer.
        A timer bounds the stall in case an awaited host dies (or never
        hosted a live replica) before announcing.

        ``round_key`` identifies the merge round: the new ring key from
        the transitional configuration that (re-)armed the stall.  Both
        sides of a merge observe the same new ring, so the key is a shared
        round identifier even though their transitional member sets
        differ.  RECONCILED markers are stamped with it, and markers from
        a different round are ignored: under repeated ring churn,
        announcements from an earlier reconciliation can otherwise drain
        the new round's await set and release the stall before the
        sponsor's capture has been adopted -- the replica then executes
        its buffered requests against pre-merge state and a late stale
        capture erases them.
        """
        replica.merge_await = set(awaiting)
        replica.merge_round = round_key
        if replica.merge_stall_timer is not None:
            replica.merge_stall_timer.cancel()
        if not replica.awaiting_merge_capture:
            replica.awaiting_merge_capture = True
            self.ep.emit("ft.merge.stall", {"group": replica.group,
                                             "node": self.node_id})

        def expire():
            self._release_merge_stall(replica, "timeout")

        replica.merge_stall_timer = self.ep.timer(
            self.merge_stall_timeout, expire, "ft.merge.stall"
        )

    def _multicast_reconciled(self, replica):
        replica.merge_announced = True
        self.ep.emit("ft.merge.reconciled.sent", {"group": replica.group,
                                                   "node": self.node_id})
        self._member_for(replica.group).send(
            (replica.group,),
            (RECONCILED, replica.group, self.node_id, replica.merge_round),
            size=_ENVELOPE_OVERHEAD,
        )

    def _deliver_reconciled(self, message, payload):
        _, group, sender, round_key = payload
        replica = self.replicas.get(group)
        if replica is None or not replica.awaiting_merge_capture:
            return
        if round_key != replica.merge_round:
            # An announcement for a different merge round (stale churn
            # leftover, or an announcer that has not yet observed the
            # latest transitional).  Counting it would release this stall
            # early; the announcer repeats its marker when it sees the new
            # ring, and the safety timer bounds the wait if it never does.
            self.ep.emit("ft.merge.reconciled.stale",
                          {"group": group, "node": self.node_id})
            return
        replica.merge_await.discard(sender)
        if not replica.merge_await:
            self._release_merge_stall(replica, "reconciled")

    def _release_merge_stall(self, replica, reason):
        if not replica.awaiting_merge_capture:
            return
        replica.awaiting_merge_capture = False
        replica.merge_await = set()
        replica.merge_announced = False
        replica.merge_round = None
        # A timeout release ends the *stall* (liveness: an awaited host
        # may be dead) but must not count as reconciliation (safety): the
        # debt (to the other component's hosts) keeps side_rep from
        # collapsing to the ring minimum until the primary side's capture
        # actually binds, so a late capture can still be adopted.  A
        # completed barrier settles it.
        replica.merge_unreconciled = (
            set() if reason == "reconciled" else set(replica.merge_outside))
        if replica.merge_stall_timer is not None:
            replica.merge_stall_timer.cancel()
            replica.merge_stall_timer = None
        self.ep.emit("ft.merge.stall.released",
                      {"group": replica.group, "node": self.node_id,
                       "reason": reason, "replay": len(replica.buffered)})
        self._replay_buffered(replica)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _member_of(self, group):
        return any(group in member.my_groups
                   for member in self._ring_members.values())

    def _cancel_queued_everywhere(self, predicate):
        """Withdraw queued messages matching ``predicate`` on every ring."""
        return sum(member.cancel_queued(predicate)
                   for member in self._ring_members.values())

    def stats(self):
        """Suppression and execution counters for benchmarks."""
        return {
            group: {
                "style": replica.policy.style,
                "ops_applied": replica.ops_applied,
                "suppressed_requests": replica.table.suppressed_requests,
                "suppressed_replies": replica.table.suppressed_replies,
            }
            for group, replica in self.replicas.items()
        }


class _FakeMessage:
    """Stand-in for a GroupMessage when replaying buffered deliveries."""

    def __init__(self, order_key):
        self.order_key = order_key
        self.sender = None

