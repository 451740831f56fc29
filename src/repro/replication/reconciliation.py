"""Ring configuration, merge stall, capture adoption and fulfillment: the
membership family of :class:`~repro.replication.engine.ReplicationEngine`.

During a partition every component keeps operating (the Eternal model).
At remerge, one component per object group is retroactively the *primary*
component: its state is adopted by everyone, and the operations the other
(secondary) components performed meanwhile are re-executed on the merged
state as *fulfillment operations*, letting the application resolve
conflicts (e.g. back-ordering an oversold item).

A replica's *side* is the partition component it has stayed consistent
with; the side's representative is its minimum hosting-node id.  Because a
capture is only ever sponsored by a side's representative, comparing the
sponsor id with our own side representative decides, per object group,
which component is primary -- without any extra agreement protocol:

- ``sponsor >= side_rep``: the capture comes from our own side (or from a
  side we outrank); we are in the primary component, nothing to adopt.
- ``sponsor < side_rep``: the capture's side is primary; we were the
  secondary component and must adopt it and replay our divergent
  operations as fulfillment operations.

Different groups may resolve to different primary components in the same
remerge (a component may host the lowest member of one group but not
another), matching the paper's per-object primary component model.  The
functions below hold the pure decision logic; the mixin feeds them from the
totally ordered delivery stream.
"""

from repro.replication.duplicates import COMPLETED, OperationTable
from repro.replication.election import choose_primary
from repro.replication.identifiers import fulfillment_operation_id
from repro.replication.replica import ExecutionTask
from repro.replication.requests import _ENVELOPE_OVERHEAD, REQUEST
from repro.replication.styles import ReplicationStyle

RECONCILED = "ft-reconciled"


def derive_side_representative(group_members, transitional_members, me):
    """The representative of this replica's partition side.

    Computed when the EVS transitional configuration is delivered: of the
    group's members, those present in the transitional membership moved
    together with us and form our side.
    """
    side_hosts = (set(group_members) & set(transitional_members)) | {me}
    return min(side_hosts)


def should_adopt_capture(sponsor, side_rep, me):
    """Whether a delivered state capture binds a *ready* replica.

    Returns True exactly when the capture's sponsor outranks our side's
    representative -- i.e. our component is the secondary one for this
    group.
    """
    if sponsor == me:
        return False
    effective = side_rep if side_rep is not None else me
    return sponsor < effective


def divergent_operations(journal, their_completed):
    """Operations we completed that the primary component never saw.

    Args:
        journal: our ``(op id, request_bytes, client_group)`` entries in
            completion order -- the operation table's journal, which holds
            exactly the completed operations some host may still lack.
            Entries with no recorded request bytes cannot be replayed and
            are skipped.
        their_completed: the primary component's completed operations (any
            container answering ``in``), taken from the adopted capture's
            infrastructure state.

    Returns a list of (op_id, request_bytes, client_group) in the original
    completion order.  Fulfillment re-executions of earlier fulfillment
    operations are excluded (an op id starting with ``"f"`` is already a
    fulfillment op).
    """
    return [
        entry for entry in journal
        if entry[1] is not None
        and entry[0] not in their_completed
        and not (entry[0] and entry[0][0] == "f")
    ]


class Merge:
    """A replica's merge in progress (``replica.merge``; None when normal).

    Armed at a transitional configuration readmitting known hosts of the
    group from another component: ``outside`` (the only hosts a binding
    capture can come from); ``since`` is the new ring's sequence.  Phases:

    - *stalled*: ordinary requests wait until a RECONCILED marker of merge
      ``round`` has been delivered from every host in ``awaiting`` (else
      replies would be computed from a state missing the other side's
      operations).  ``announced``: we sent ours; ``timer`` bounds the wait.
    - *owing*: the timer ended the stall first and no binding capture was
      adopted.  ``outside`` is the debt: our history may still lack another
      component's operations, so ``side_rep`` stays frozen (a late capture
      from the true primary side must still bind) and nothing we completed
      counts as stable, until a capture binds or every creditor is removed.

    Only the mixin's transitions and :meth:`without` change it; everyone
    else asks whether it exists or is :attr:`stalled`.
    """

    __slots__ = ("outside", "since", "awaiting", "round", "announced", "timer")

    def __init__(self, outside, since):
        self.outside = set(outside)
        self.since = since
        self.awaiting = None
        self.round = None
        self.announced = False
        self.timer = None

    @property
    def stalled(self):
        return self.awaiting is not None

    def without(self, host):
        """The record once ``host``'s history is gone: it is owed nothing."""
        self.outside.discard(host)
        return self if self.stalled or self.outside else None

    def fences(self, host):
        """Is ``host`` of the other side, its marker still to come?"""
        return self.stalled and host in self.outside and host in self.awaiting


class MergeReconciliation:
    """Engine mixin: the membership family (see module docstring)."""

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
            merge = replica.merge
            was_stalled = merge is not None and merge.stalled
            # Only hosts that moved with us from the old ring share our
            # history; a view member outside the transitional component
            # (we listed it, but it never installed that ring) needs a
            # capture like any other joiner.
            stateful = set(replica.members) - replica.unserved
            replica.pre_change_members = (
                (stateful & transitional) | {self.node_id})
            # A ring change may have cut off an outstanding resync request
            # (or the merge reconciliation now underway supersedes it);
            # re-arm so the next gapped update can retry.
            replica.resync_pending = False
            # Mid-merge (stalled or owing) the representative stays frozen:
            # a second ring change can put both sides in one transitional
            # component, and re-deriving there would collapse side_rep to
            # the ring minimum before the capture arrives, disabling the
            # adoption rule (sponsor < side_rep).  The freeze is only sound
            # while we travel with our representative: once churn separates
            # us from it, claiming primacy through it would refuse its
            # side's capture at the next merge, so re-derive as outside one.
            if merge is None or (replica.side_rep is not None
                                 and replica.side_rep != self.node_id
                                 and replica.side_rep not in transitional):
                replica.side_rep = derive_side_representative(
                    stateful, transitional, self.node_id
                )
            # Remerge barrier.  A new-ring member outside our transitional
            # component that we know hosts this group means components with
            # divergent histories just merged: the secondary side adopts
            # the primary side's capture and re-issues its divergent
            # operations as fulfillments, and *both* sides stall (see
            # Merge), so total order runs every fulfillment before any
            # stalled request.  (The group view cannot drive this: it is
            # rebuilt from announces after requests can be delivered.)
            outside_hosts = (
                (new_ring_members - transitional) & replica.ever_members
            )
            if outside_hosts:
                awaiting = ((new_ring_members & replica.ever_members)
                            | {self.node_id})
                self._stall_for_merge(replica, event.new_ring_key,
                                      outside_hosts, awaiting)
                if min(outside_hosts) > replica.side_rep:
                    # Primary side: no capture binds us; announce at once
                    # (again on mid-merge ring churn -- announcements sent
                    # in the previous ring may have been cut off with it).
                    # The secondary side announces after adopting ours.
                    self._multicast_reconciled(replica)
            elif was_stalled:
                # The ring churned mid-merge and the sides now travel
                # together, but the reconciliation continues in the new
                # ring: keep the stall, and repeat our announcement if we
                # made one (it may have been cut off with the old ring).
                self._stall_for_merge(replica, event.new_ring_key)
                if merge.announced:
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
        new_ring = view.ring_key != replica.view_ring_key
        replica.view_ring_key = view.ring_key
        self.ep.emit("ft.view", {"group": view.group,
                                  "members": list(view.members)})
        if replica.ready and replica.side_rep is None and new:
            # Bootstrap (no transitional configuration has occurred yet).
            replica.side_rep = min(new | {self.node_id})
        if replica.ready and not new_ring and new:
            # Same-ring view changes are group joins/leaves; a leave that
            # removed our representative moves it to the next survivor,
            # unless a reconciliation is owed.
            merge = replica.merge
            if (replica.side_rep not in new and new <= old
                    and (merge is None or merge.stalled)):
                replica.side_rep = min(new)
        if replica.ready and joiners - {self.node_id}:
            pre_change = replica.pre_change_members or old
            needy = joiners - {self.node_id} - pre_change
            if needy and replica.side_rep == self.node_id:
                self._schedule_sponsorship(replica)
            else:
                replica.unserved |= needy
        if replica.ready and ReplicationStyle.is_passive(replica.policy.style):
            old_primary = choose_primary(old) if old else None
            if replica.is_primary and old_primary != self.node_id:
                # This node became the passive primary: finish uncovered work.
                self.ep.emit("ft.failover", {"group": replica.group,
                                              "node": self.node_id})
                self._cover_pending(replica)
        if replica.ready and replica.is_primary and replica.external_pending:
            old_primary = choose_primary(old) if old else None
            if old_primary != self.node_id:
                self._reissue_external_calls(replica)
        # Lease renewal tracks the view: a new primary starts requesting
        # grants (it cannot *hold* the lease until the old primary's
        # grants expire at every backup); a demoted one stops.
        self.leases.sync(replica)

    # ------------------------------------------------------------------
    # Capture adoption and fulfillment
    # ------------------------------------------------------------------

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
            best = replica.adopted_sponsor
            if best is not None and best <= sponsor:
                return
            replica.adopted_sponsor = sponsor
            self._adopt_capture(replica, capture)
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
        # (Outside a stall nothing is buffered.)
        merge = replica.merge
        premerge = [entry for entry in replica.buffered
                    if entry[0][0] == REQUEST and not entry[0][5]
                    and entry[1][0] < merge.since]
        replica.buffered = [entry for entry in replica.buffered
                            if entry not in premerge]
        self._adopt_with_fulfillment(replica, capture, "ft.merge.adopted")
        # Adopt the sponsor as our representative: in a multi-way merge an
        # even smaller sponsor's capture may still arrive and re-adopt.
        replica.side_rep = sponsor
        # Our history now contains the primary side's: any reconciliation
        # debt left by an earlier timed-out stall is settled.
        if merge is not None and not merge.stalled:
            replica.merge = None
        for payload, _order_key in premerge:
            self._member_for(replica.group).send(
                (replica.group, payload[2]), payload,
                size=len(payload[4]) + _ENVELOPE_OVERHEAD)
        # Announce after the fulfillments: every stalled replica holds its
        # buffered requests until RECONCILED has arrived from all known
        # hosts, and total order then places our divergent operations
        # before any of those requests.
        self._multicast_reconciled(replica)

    def _adopt_with_fulfillment(self, replica, capture, adopted):
        """Adopt a binding capture and re-issue what only we completed as
        fulfillment operations (every member of our side derives the same
        plan, so they dedupe); ``adopted`` names the event to emit."""
        plan = divergent_operations(
            replica.table.completed_in_order(),
            OperationTable.completed_in(capture.infrastructure))
        self._adopt_capture(replica, capture)
        self.ep.emit(adopted, {"group": replica.group, "node": self.node_id,
                               "fulfillment": len(plan)})
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
        # generators.  They stay marked executing, so the capture's copy
        # of any of them is suppressed below and execution order follows
        # delivery order.
        for pending in interrupted:
            if replica.table.live.get(pending.operation_id) is pending:
                task = ExecutionTask(replica, pending, self._run_task)
                replica.dispatcher.submit(task)
        if checkpoint:
            return
        # The sponsor's in-flight requests: delivered to its component
        # before the merge (or before a joiner joined), they are in neither
        # our delivery sequence nor the captured completed state.  Running
        # them here starts our next execution from the sponsor's point;
        # duplicate suppression covers those we saw ourselves.
        for op, request_bytes, client_group, order_key in (
                capture.infrastructure["pending"]):
            if replica.table.status(op) != COMPLETED:
                self._process_request(replica, op, bytes(request_bytes),
                                      client_group, False, order_key)

    def _make_ready(self, replica):
        replica.ready = True
        if replica.members:
            replica.side_rep = min(replica.members)
        replica.merge = None
        self.ep.emit("ft.replica.ready", {"group": replica.group,
                                           "node": self.node_id,
                                           "replay": len(replica.buffered)})
        self._replay_buffered(replica)
        self.leases.sync(replica)

    # ------------------------------------------------------------------
    # Remerge stall: secondary components wait for the inbound capture
    # ------------------------------------------------------------------

    def _stall_for_merge(self, replica, round_key, outside=None,
                         awaiting=None):
        """Arm the merge stall (``outside``, ``awaiting`` given) or re-arm it.

        Re-arming while stalled keeps the awaited set unless a new one is
        given, and refreshes the safety timer without replaying the buffer;
        arming from the owing phase replaces the old debt.  ``round_key``,
        the new ring key, is a round both sides share.  Markers carry it and
        other rounds' markers are ignored: under repeated churn an earlier
        round's announcements could otherwise release this stall before the
        sponsor's capture is adopted, and buffered requests would run
        against pre-merge state that a late stale capture then erases.
        """
        merge = replica.merge
        if merge is None or not merge.stalled:
            merge = replica.merge = Merge(outside, round_key[0])
            self.ep.emit("ft.merge.stall", {"group": replica.group,
                                             "node": self.node_id})
        else:
            merge.timer.cancel()
            if outside is not None:
                merge.outside, merge.since = set(outside), round_key[0]
        if awaiting is not None:
            merge.awaiting = set(awaiting)
        merge.round = round_key

        def expire():
            self._release_merge_stall(replica, "timeout")

        merge.timer = self.ep.timer(
            self.merge_stall_timeout, expire, "ft.merge.stall"
        )

    def _multicast_reconciled(self, replica):
        merge = replica.merge   # stalled, or None after an adoption
        if merge is not None:
            merge.announced = True
        self.ep.emit("ft.merge.reconciled.sent", {"group": replica.group,
                                                   "node": self.node_id})
        self._member_for(replica.group).send(
            (replica.group,),
            (RECONCILED, replica.group, self.node_id, merge and merge.round),
            size=_ENVELOPE_OVERHEAD,
        )

    def _deliver_reconciled(self, replica, payload, order_key):
        _, group, sender, round_key = payload
        merge = replica.merge
        if merge is None or not merge.stalled:
            return
        if round_key != merge.round:
            # An announcement for a different merge round (stale churn
            # leftover, or an announcer that has not yet observed the
            # latest transitional).  Counting it would release this stall
            # early; the announcer repeats its marker when it sees the new
            # ring, and the safety timer bounds the wait if it never does.
            self.ep.emit("ft.merge.reconciled.stale",
                          {"group": group, "node": self.node_id})
            return
        merge.awaiting.discard(sender)
        if not merge.awaiting:
            self._release_merge_stall(replica, "reconciled")

    def _unfenced(self, message, payload):
        """Live step of the passive pushes: refuse one the merge fences.

        The other side's history reaches us only through capture adoption
        and fulfillments, but an update it sent before the merge can still
        be in its send queue when the ring re-forms, and its position
        cannot tell: forked histories can stand at the same count.  Applied
        here it would make the fulfillment of its operation look like a
        duplicate.  After the sender's marker, per-sender FIFO makes its
        pushes post-reconciliation.
        """
        replica = self.replicas.get(payload[1])
        merge = replica and replica.merge
        if merge is None or not merge.fences(message.sender):
            return True
        self.ep.emit("ft.merge.push.refused", {
            "group": payload[1], "node": self.node_id, "kind": payload[0]})
        return False

    def _release_merge_stall(self, replica, reason):
        merge = replica.merge
        if merge is None or not merge.stalled:
            return
        merge.timer.cancel()
        # A timeout ends the *stall* (liveness: an awaited host may be
        # dead) but is no reconciliation (safety): the record stays, owing,
        # until a late capture binds.  A completed barrier settles it.
        owed = reason == "timeout" and merge.outside
        replica.merge = Merge(merge.outside, merge.since) if owed else None
        self.ep.emit("ft.merge.stall.released",
                      {"group": replica.group, "node": self.node_id,
                       "reason": reason, "replay": len(replica.buffered)})
        self._replay_buffered(replica)
