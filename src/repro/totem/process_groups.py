"""Process-group layer on top of the Totem ordering protocol.

The Eternal system addresses *object groups*, not processors; this layer
provides the group abstraction the replication mechanisms are built on:

- processors join/leave named groups;
- messages are multicast to one or more groups and delivered only to group
  members, in the system-wide total order (ordered within each group and
  across groups, as Eternal requires for nested invocations);
- group membership views are themselves totally ordered: joins and leaves
  are announced through the ordering protocol, so every member observes
  the same sequence of views, consistently interleaved with messages.
"""

from repro.totem.events import RegularConfiguration, TransitionalConfiguration


class GroupMessage:
    """A message delivered to a process group member."""

    __slots__ = ("sender", "groups", "payload", "size", "order_key", "transitional")

    def __init__(self, sender, groups, payload, size, order_key, transitional):
        self.sender = sender
        self.groups = tuple(groups)
        self.payload = payload
        self.size = size
        self.order_key = order_key
        self.transitional = transitional

    def __repr__(self):
        return "GroupMessage(from=%s, groups=%s, order=%s)" % (
            self.sender, list(self.groups), self.order_key,
        )


class GroupView:
    """A totally-ordered membership view of one group.

    ``view_seq`` increases by one for each membership-affecting delivery of
    the group since the current ring was installed; because the underlying
    deliveries are totally ordered, every member observes the same sequence
    of (view_seq, members) pairs.
    """

    __slots__ = ("group", "members", "ring_key", "view_seq")

    def __init__(self, group, members, ring_key, view_seq):
        self.group = group
        self.members = tuple(sorted(members))
        self.ring_key = ring_key
        self.view_seq = view_seq

    def __repr__(self):
        return "GroupView(%s, members=%s, view=%d)" % (
            self.group, list(self.members), self.view_seq,
        )


class GroupMember:
    """Process-group endpoint bound to one :class:`TotemProcessor`.

    Args:
        processor: the Totem endpoint to run over.  This object installs
            itself as the processor's delivery and configuration callback.
        on_message: callback(:class:`GroupMessage`) for group messages
            addressed to a group this processor has joined.
        on_view: callback(:class:`GroupView`) for membership view changes
            of any group (listeners filter by group name).
        on_config: optional passthrough callback for raw Totem
            configuration events.
    """

    def __init__(self, processor, on_message=None, on_view=None, on_config=None):
        self.processor = processor
        self.node_id = processor.node_id
        self.on_message = on_message or (lambda msg: None)
        self.on_view = on_view or (lambda view: None)
        self.on_config_cb = on_config or (lambda event: None)
        self.my_groups = set()
        # node id -> frozenset of groups, learned from ordered announces.
        self.membership = {}
        self.current_ring_key = None
        self._view_seq = {}
        processor.on_deliver = self._on_deliver
        processor.on_config = self._on_config
        # A process crash loses group membership: clear it so the fresh
        # incarnation does not re-announce groups it no longer hosts.
        processor.ep.on_crash(lambda _n: self._on_node_crash())

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def join(self, group):
        """Join a named group; the new view propagates in total order."""
        if group in self.my_groups:
            return
        self.my_groups.add(group)
        self._announce()

    def leave(self, group):
        """Leave a named group."""
        if group not in self.my_groups:
            return
        self.my_groups.discard(group)
        self._announce()

    def send(self, groups, payload, size=64, guarantee="agreed", span=None):
        """Multicast ``payload`` to one or more named groups.

        The sender need not be a member of the destination groups.  Delivery
        respects the system-wide total order across all groups.  ``span``
        is passed through to :meth:`TotemProcessor.send` for cross-layer
        invocation spans.
        """
        if isinstance(groups, str):
            groups = (groups,)
        self.processor.send(
            ("app", tuple(groups), payload), size=size, guarantee=guarantee,
            span=span,
        )

    def cancel_queued(self, predicate):
        """Withdraw queued group messages whose app payload matches.

        Only messages still waiting in the ordering layer's send queue can
        be withdrawn; messages already broadcast are suppressed by the
        receivers instead.  Returns the number withdrawn.
        """

        def match(envelope):
            return (
                isinstance(envelope, tuple)
                and envelope
                and envelope[0] == "app"
                and predicate(envelope[2])
            )

        return self.processor.cancel_queued(match)

    def members_of(self, group):
        """Current local view of a group's membership (sorted node ids)."""
        return tuple(sorted(
            node for node, groups in self.membership.items() if group in groups
        ))

    def stable_horizon(self):
        """``(ring members, order key)`` up to which deliveries are *safe*.

        Every member of the current regular configuration is known to hold
        every message ordered at or before the returned key (older rings'
        keys compare lower).  None outside a regular configuration.
        """
        processor = self.processor
        if processor.state != "operational":
            return None
        ring = processor.ring
        return ring.members, (ring.seq, processor.store.safe_seq)

    # ------------------------------------------------------------------
    # Totem callbacks
    # ------------------------------------------------------------------

    def _on_node_crash(self):
        self.my_groups = set()
        self.membership = {}
        self._view_seq = {}
        self.current_ring_key = None

    def _announce(self):
        self.processor.send(
            ("announce", frozenset(self.my_groups)),
            size=64 + 16 * len(self.my_groups),
        )

    def _on_config(self, event):
        if isinstance(event, RegularConfiguration):
            self.current_ring_key = event.ring_key
            # Membership knowledge is per-ring: forget everything and
            # re-announce; every member does the same, so views rebuild
            # identically (in total order) at every member.
            self.membership = {}
            self._view_seq = {}
            self._announce()
        elif isinstance(event, TransitionalConfiguration):
            # Trim membership knowledge to the transitional members so views
            # during the transition reflect reachable processors only.
            affected = self._apply_membership(
                {node: frozenset() for node in list(self.membership)
                 if node not in event.members}
            )
            self._emit_views(affected, event.old_ring_key)
        self.on_config_cb(event)

    def _on_deliver(self, delivered):
        kind = delivered.payload[0]
        if kind == "announce":
            groups = delivered.payload[1]
            affected = self._apply_membership({delivered.sender: frozenset(groups)})
            self._emit_views(affected, delivered.ring_key)
        elif kind == "app":
            groups, payload = delivered.payload[1], delivered.payload[2]
            if self.my_groups.intersection(groups):
                self.on_message(
                    GroupMessage(
                        delivered.sender, groups, payload, delivered.size,
                        delivered.order_key(), delivered.transitional,
                    )
                )

    # ------------------------------------------------------------------
    # View bookkeeping
    # ------------------------------------------------------------------

    def _apply_membership(self, updates):
        """Apply membership updates; returns the set of affected groups."""
        affected = set()
        for node, groups in updates.items():
            before = self.membership.get(node, frozenset())
            if groups:
                self.membership[node] = groups
            else:
                self.membership.pop(node, None)
            affected |= before.symmetric_difference(groups)
        return affected

    def _emit_views(self, affected, ring_key):
        for group in sorted(affected):
            seq = self._view_seq.get(group, 0) + 1
            self._view_seq[group] = seq
            self.on_view(GroupView(group, self.members_of(group), ring_key, seq))
