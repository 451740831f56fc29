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

The mechanisms live in one mixin per envelope family (``requests``,
``state_sync``, ``reconciliation``); this file holds construction, ring
routing, hosting, and delivery through one table and one gate.

Everything the engine decides is a deterministic function of the totally
ordered delivery stream, which is what makes the replicas consistent.
"""

from repro.orb.idl import interface_of
from repro.orb.ior import IOR, FTGroupProfile
from repro.replication import reconciliation, requests, state_sync
from repro.replication.identifiers import ExecutionContext, OperationIdAllocator
from repro.replication.leases import LeaseGrantor, LeaseManager
from repro.replication.reads import LocalReadPort, ReadCoordinator
from repro.replication.replica import LocalReplica
from repro.replication.rings import RingMap
from repro.replication.styles import GroupPolicy

UNTIL_READY = "ready"            # until the replica adopted its first capture
UNTIL_RECONCILED = "reconciled"  # ... and while a remerge stall is in force

# Envelope kind -> (live step, handler, waits), by method name.  The live step
# sees the GroupMessage (sender, invoker side) and may end the delivery; the
# handler gets this node's replica of ``payload[1]``, now or when _waits lets go.
_DELIVERY = {
    requests.REQUEST: ("_request_at_invoker", "_deliver_request", UNTIL_RECONCILED),
    requests.REPLY: ("_deliver_reply", None, None),
    requests.EXTERNAL_REPLY: ("_deliver_external_reply", None, None),
    requests.POLICY: (None, "_apply_policy", UNTIL_RECONCILED),
    state_sync.STATE_UPDATE: ("_unfenced", "_deliver_state_update", UNTIL_READY),
    state_sync.STATE_UPDATE_IMAGE: ("_unfenced", "_deliver_state_update", UNTIL_READY),
    state_sync.CHECKPOINT: ("_peer_checkpoint", "_deliver_checkpoint", UNTIL_READY),
    state_sync.STATE_FULL: (None, "_deliver_state_full", None),
    state_sync.STATE_CHUNK: ("_from_peer", "_deliver_state_chunk", None),
    state_sync.STATE_END: ("_from_peer", "_deliver_state_end", None),
    state_sync.RESYNC: ("_from_peer", "_deliver_resync", None),
    state_sync.RESYNC_STATE: (None, "_deliver_resync_state", None),
    reconciliation.RECONCILED: (None, "_deliver_reconciled", None),
}


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


class ReplicationEngine(requests.RequestProtocol, state_sync.StateSync,
                        reconciliation.MergeReconciliation):
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
    # Delivery: one table, one gate
    # ------------------------------------------------------------------

    def _on_group_message(self, message):
        payload = message.payload
        route = _DELIVERY.get(payload[0])
        if route is None:
            return
        live, handler, waits = route
        if live is not None and not getattr(self, live)(message, payload):
            return
        replica = self.replicas.get(payload[1])
        if replica is None:
            return
        if self._waits(replica, payload, waits):
            replica.buffered.append((payload, message.order_key))
            return
        getattr(self, handler)(replica, payload, message.order_key)

    @staticmethod
    def _waits(replica, payload, waits):
        """The delivery gate: does this delivery wait in the buffer?"""
        if waits is None:
            return False
        if not replica.ready:
            return True
        # Fulfillment requests bypass the merge stall: they carry the
        # secondary component's divergent operations and must execute
        # before the stalled (post-merge) requests are replayed.  A policy
        # change waits, ordered with the stalled requests: on replay it
        # switches styles at the same relative position everywhere.
        return (waits == UNTIL_RECONCILED and replica.merge is not None
                and replica.merge.stalled
                and not (payload[0] == requests.REQUEST and payload[5]))

    def _replay_buffered(self, replica):
        buffered, replica.buffered = replica.buffered, []
        for payload, order_key in buffered:
            getattr(self, _DELIVERY[payload[0]][1])(replica, payload, order_key)

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
