"""A local replica: one hosted member of an object group.

The :class:`LocalReplica` holds everything the Eternal mechanisms keep per
replica at one node: the servant, the operation table (duplicate
suppression, pending requests and the fulfillment journal in one
structure), the execution dispatcher, and view bookkeeping.

All decision logic that must be identical across replicas (what to
execute, when to push state, who replies) lives in the engine and runs in
delivered-message order; this class is the state it operates on.
"""

from repro.determinism.dispatcher import make_dispatcher
from repro.determinism.sanitizer import SanitizedEnvironment
from repro.replication.duplicates import OperationTable
from repro.replication.election import choose_primary


class ExecutionTask:
    """Dispatcher task executing one request (``pending``, its
    :class:`~repro.replication.duplicates.OperationRecord`) at one replica."""

    __slots__ = ("replica", "pending", "resend_reply", "cost", "request", "_runner")

    def __init__(self, replica, pending, runner, resend_reply=True):
        self.replica = replica
        self.pending = pending
        self.resend_reply = resend_reply
        self.cost = getattr(replica.servant, "simulated_cost", 0.0) or 0.0
        self.request = None
        self._runner = runner

    def run(self, done):
        self._runner(self, done)


class DispatcherJob:
    """Zero-cost dispatcher task running ``action(done)`` in dispatch order."""

    cost = 0.0

    def __init__(self, action):
        self.run = action


class LocalReplica:
    """One group member hosted at one node."""

    def __init__(self, engine, group, servant, policy, ready):
        self.engine = engine
        self.group = group
        self.servant = servant
        self.policy = policy
        self.node_id = engine.node_id
        # Replica lifecycle: a bootstrap replica is ready immediately; an
        # added/recovering replica buffers deliveries until it receives a
        # state capture from the sponsor (the engine's delivery gate).
        self.ready = ready
        self.buffered = []   # (payload, order_key) held back by the gate
        self.adopted_sponsor = None   # smallest sponsor adopted while unready
        # The merge in progress, stalled or owing a reconciliation
        # (:class:`~repro.replication.reconciliation.Merge`), or None.
        self.merge = None
        # True while a resync request (sent after a passive-update gap)
        # awaits its capture; suppresses duplicate requests.
        self.resync_pending = False
        # Mechanisms state.
        self.table = OperationTable(self._count_suppression)
        self.ops_applied = 0
        self.ops_since_checkpoint = 0
        # Bumped on every wholesale state adoption; execution contexts
        # snapshot it at dispatch and abort their generator at the next
        # resume when it moved (their in-flight effects were superseded).
        self.state_epoch = 0
        # External (plain-IOR) invocations issued by in-progress operations:
        # op id -> (target IOR, RequestMessage); the group leader performs
        # them and a new leader re-issues any left open at failover.
        self.external_pending = {}
        # View bookkeeping.
        self.members = ()
        self.previous_members = ()
        self.view_ring_key = None
        # Members that moved with us through the last transitional config.
        self.pre_change_members = None
        # Joiners another member is to sponsor whose capture has not been
        # delivered here yet.  They hold no state: if the sponsor fails
        # first, a ring change must not count them as sharing our history.
        self.unserved = set()
        # Every node seen hosting this group and not administratively
        # removed since (see ``forget_host``).  Group views are rebuilt
        # incrementally from announces after a ring change, so the current
        # view under-reports membership right when a remerge is detected;
        # this set remembers which ring members can host a sponsor capture
        # -- and whose history could differ from ours.
        self.ever_members = {self.node_id}
        # Representative of the partition component this replica has stayed
        # consistent with.  Frozen while views grow (merge in progress) and
        # re-derived when reconciliation completes, so primary-component
        # determination at remerge does not depend on intermediate views.
        self.side_rep = None
        self.dispatcher = make_dispatcher(
            policy.dispatch_policy, engine.ep, engine.ep
        )
        self.environment = SanitizedEnvironment(
            engine.ep, engine.ep, sanitized=policy.sanitize_environment
        )
        # Give the servant access to the (possibly sanitized) environment,
        # mirroring Eternal's interception of time/random system calls.
        servant.env = self.environment
        # Blocking transfer in progress (sponsor side): callback and marker.
        self.sponsor_done = None
        self.sponsor_marker = None

    def _count_suppression(self, category):
        self.engine.ep.emit(category, {"group": self.group})

    # ------------------------------------------------------------------
    # Roles
    # ------------------------------------------------------------------

    @property
    def primary(self):
        return choose_primary(self.members)

    @property
    def is_primary(self):
        return self.primary == self.node_id

    @property
    def executes_here(self):
        from repro.replication.styles import ReplicationStyle

        if ReplicationStyle.executes_everywhere(self.policy.style):
            return True
        return self.is_primary

    # ------------------------------------------------------------------
    # Request bookkeeping
    # ------------------------------------------------------------------

    def complete(self, operation_id, request_bytes, client_group, reply_bytes):
        """Mark an operation completed (executed here or via state update)."""
        table = self.table
        table.note_completed(operation_id, reply_bytes, request_bytes,
                             client_group)
        if operation_id and operation_id[0] == "f":
            # A fulfillment re-execution also completes its *original*
            # operation id: the original completed only in the pre-merge
            # secondary component, whose operation table the adopted
            # capture replaced.  Without the pairing, a client retry of
            # the original id arriving after the remerge would execute
            # the operation a second time.  The fulfillment's delivery has
            # to become stable before the original's request bytes may go,
            # so the pair shares its order key.
            fulfilled = table.live.get(operation_id)
            table.note_completed(operation_id[1], reply_bytes, request_bytes,
                                 client_group,
                                 fulfilled and fulfilled.order_key)
        self.ops_applied += 1
        self.ops_since_checkpoint += 1
        self.release_stable()

    def release_stable(self):
        """Let the journal go of requests every history-bearing host holds.

        A request is stable once it is Totem-*safe* in a regular
        configuration that contains every host whose history could differ
        (``ever_members``) while no reconciliation is owed; older rings'
        deliveries are covered by the reconciliation that followed them.
        A degraded group keeps its journal for as long as it is degraded.
        """
        if not self.ready or self.merge is not None:
            return
        stable = self.engine._member_for(self.group).stable_horizon()
        if stable is not None and self.ever_members.issubset(stable[0]):
            self.table.release_stable(stable[1])

    def forget_host(self, node_id):
        """``node_id`` was administratively removed from the group: its
        copy of the history is gone, so it no longer holds back stability
        or owes a reconciliation."""
        self.ever_members.discard(node_id)
        if self.merge is not None:
            self.merge = self.merge.without(node_id)

    # ------------------------------------------------------------------
    # State capture for transfer (three tiers)
    # ------------------------------------------------------------------

    def infrastructure_state(self):
        # In-flight requests ride along with the capture: ops delivered to
        # this component before a merge (or before a joiner joined) are in
        # no one else's delivery sequence and not yet in the completed
        # state, so an adopter that lacks them would silently diverge at
        # its next execution.  Buffered entries are requests held back by
        # a merge stall (see the engine's remerge barrier).
        from repro.replication.requests import REQUEST

        pending = [
            [p.operation_id, p.request_bytes, p.client_group, p.order_key]
            for p in self.table.pending_in_order()
        ]
        for payload, order_key in self.buffered:
            if payload[0] == REQUEST and not payload[5]:
                pending.append([payload[3], payload[4], payload[2], order_key])
        state = self.table.capture()
        state["ops_applied"] = self.ops_applied
        state["pending"] = pending
        return state

    def adopt_infrastructure_state(self, snapshot):
        # Only *completed* operations are adopted.  Executions in flight
        # at the sponsor are not in flight here; the same requests ride
        # along in the capture's pending tier and are re-processed after
        # adoption against *this* replica's dispatcher.  Our own
        # uncompleted requests the capture does not cover stay pending.
        self.table = OperationTable.restore(
            snapshot, self._count_suppression, previous=self.table
        )
        self.ops_applied = snapshot["ops_applied"]

    def __repr__(self):
        role = "primary" if self.is_primary else "backup"
        return "LocalReplica(%s@%s, %s, %s, ops=%d)" % (
            self.group, self.node_id, self.policy.style, role, self.ops_applied,
        )
