"""Requests, replies, acks, external calls and policy: the invocation
family of :class:`~repro.replication.engine.ReplicationEngine`."""

from repro.orb.cdr import encode_value
from repro.orb.giop import decode_message, encode_message
from repro.orb.idl import interface_of
from repro.replication.duplicates import COMPLETED
from repro.replication.identifiers import ExecutionContext
from repro.replication.replica import ExecutionTask
from repro.replication.styles import GroupPolicy, ReplicationStyle
from repro.telemetry import span_id_for_operation

REQUEST = "ft-request"
REPLY = "ft-reply"
EXTERNAL_REPLY = "ft-ext-reply"
POLICY = "ft-policy"

_ENVELOPE_OVERHEAD = 64


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


class RequestProtocol:
    """Engine mixin: the invocation family (see module docstring)."""

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

        def propagate(fut):
            reply = _reply_from_future(inner_request, fut)
            data = encode_message(reply)
            self._member_for(replica.group).send(
                (replica.group,),
                (EXTERNAL_REPLY, replica.group, operation_id, data),
                size=len(data) + _ENVELOPE_OVERHEAD,
            )

        if inner_request.response_expected:
            self.orb._pending[inner_request.request_id] = inner_future
            self.orb._arm_request_timeout(
                inner_request.request_id, inner_request.operation, None
            )
            inner_future.add_done_callback(propagate)
        self.orb.router.fallback.send_request(ior, inner_request, inner_future)
        if not inner_request.response_expected:
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
    # Requests
    # ------------------------------------------------------------------

    def _request_at_invoker(self, message, payload):
        """Client-side suppression bookkeeping for a delivered request."""
        client_group, operation_id = payload[2], payload[3]
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
        return True

    def _deliver_request(self, replica, payload, order_key):
        (_, _, client_group, operation_id, data, fulfillment, ack) = payload
        self._process_request(replica, operation_id, data, client_group,
                              fulfillment, order_key, ack)

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
        if style == ReplicationStyle.WARM_PASSIVE and replica.is_primary:
            if self._modifies_state(replica, request):
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

    def _apply_policy(self, replica, payload, order_key):
        changes = payload[2]
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
            uncovered = self._cover_pending(replica)
            self.ep.emit("ft.policy.replay", {"group": replica.group,
                                               "node": self.node_id,
                                               "n": uncovered})
        # Lease eligibility depends on the style (leader_serves_reads).
        self.leases.sync(replica)

    def _cover_pending(self, replica):
        """Execute every delivered-but-uncompleted request; returns how many."""
        uncovered = 0
        for pending in replica.table.pending_in_order():
            if pending.running:
                continue
            uncovered += 1
            task = ExecutionTask(replica, pending, self._run_task,
                                 resend_reply=not pending.reply_seen)
            replica.dispatcher.submit(task)
        return uncovered
