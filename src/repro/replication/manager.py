"""The replication management plane (FT-CORBA ReplicationManager shape).

Eternal's management functions -- creating replicated objects with a given
replication style and degree, adding/removing members, and restoring the
replication degree after failures -- were standardized by FT-CORBA as the
ReplicationManager.  This class is that plane: it holds a registry of the
domain's engines and object groups, and its actions (host here, transfer
state there) are carried out by the per-node engines through the real
group-communication protocols.

Degree restoration works with the fault detectors in
:mod:`repro.faultdetect`: when a fault report arrives, every group that
lost a member below its ``min_replicas`` gets a new member on a spare
node, initialized by the group's state-transfer mechanism.
"""

from repro.replication.rings import RingMap
from repro.replication.styles import GroupPolicy


class ObjectGroupRecord:
    """Manager-side bookkeeping for one replicated object."""

    def __init__(self, group, factory, policy, ior):
        self.group = group
        self.factory = factory
        self.policy = policy
        self.ior = ior
        self.locations = []

    def __repr__(self):
        return "ObjectGroupRecord(%s, %s, at %s)" % (
            self.group, self.policy.style, self.locations,
        )


class ReplicationManager:
    """Creates and maintains object groups across a domain of engines."""

    def __init__(self, domain="ft-domain", ring_map=None):
        self.domain = domain
        self.engines = {}
        self.records = {}
        self.spares = []
        # Group-to-ring placement shared with every engine and gateway in
        # the domain; a single-ring map keeps legacy topologies unchanged.
        self.ring_map = ring_map if ring_map is not None else RingMap()

    # ------------------------------------------------------------------
    # Domain registry
    # ------------------------------------------------------------------

    def register_engine(self, engine):
        """Add a node's replication engine to the domain."""
        self.engines[engine.node_id] = engine
        return self

    def register_spare(self, node_id):
        """Mark a node as a spare for degree restoration."""
        if node_id not in self.engines:
            raise ValueError("spare %r has no registered engine" % (node_id,))
        if node_id not in self.spares:
            self.spares.append(node_id)
        return self

    # ------------------------------------------------------------------
    # Object group lifecycle
    # ------------------------------------------------------------------

    def create_object(self, group, factory, locations, policy=None, ring=None):
        """Create a replicated object: one replica per location.

        ``factory()`` constructs a servant; it is called once per replica
        so each node owns its own instance (as separate processes would).
        All initial replicas start from the factory's state, so they boot
        ready without a state transfer.  Returns the group IOR.

        ``ring`` pins the group to a shard ring; by default the ring map's
        deterministic hash placement decides.  Every location must run the
        chosen ring.
        """
        if group in self.records:
            raise ValueError("object group %r already exists" % (group,))
        policy = policy or GroupPolicy()
        self.ring_map.assign(
            group, ring if ring is not None else self.ring_map.placement(group)
        )
        ior = None
        record = ObjectGroupRecord(group, factory, policy, None)
        for node_id in locations:
            engine = self._engine(node_id)
            ior = engine.host_replica(group, factory(), policy, ready=True)
            record.locations.append(node_id)
        record.ior = ior
        self.records[group] = record
        return ior

    def add_member(self, group, node_id):
        """Add a replica at a node; it initializes by state transfer."""
        record = self._record(group)
        engine = self._engine(node_id)
        engine.host_replica(group, record.factory(), record.policy, ready=False)
        record.locations.append(node_id)
        return record.ior

    def remove_member(self, group, node_id):
        """Withdraw a replica (administrative removal, not a fault)."""
        record = self._record(group)
        self._engine(node_id).unhost_replica(group)
        if node_id in record.locations:
            record.locations.remove(node_id)
        # The removed host's copy of the group's history is gone for good:
        # the survivors stop waiting for it (stability, reconciliation).
        for engine in self.engines.values():
            replica = engine.replicas.get(group)
            if replica is not None:
                replica.forget_host(node_id)

    def ior_of(self, group):
        return self._record(group).ior

    def locations_of(self, group):
        return list(self._record(group).locations)

    # ------------------------------------------------------------------
    # Degree restoration
    # ------------------------------------------------------------------

    def handle_fault(self, node_id):
        """React to a reported node fault: restore replication degrees.

        Every group hosted at the dead node loses that member; groups that
        drop below ``min_replicas`` receive a new member on a spare node.
        Returns a list of (group, new_node) placements made.
        """
        placements = []
        for record in self.records.values():
            if node_id not in record.locations:
                continue
            record.locations.remove(node_id)
            if len(record.locations) >= record.policy.min_replicas:
                continue
            spare = self._pick_spare(record)
            if spare is None:
                continue
            self.add_member(record.group, spare)
            placements.append((record.group, spare))
        return placements

    def _pick_spare(self, record):
        """Choose a spare for ``record``, ring-aware.

        Eligible spares must be alive, not already hosting the group, and
        run the group's home ring (a node outside the ring cannot order
        its traffic).  Among the eligible, prefer spares whose protocol
        stack is *native* to the home ring -- fewest total rings joined,
        so a dedicated ring-local spare beats a cross-ring generalist --
        then the least-loaded (fewest hosted replicas), then registration
        order for determinism.
        """
        best = None
        best_rank = None
        for index, node_id in enumerate(self.spares):
            engine = self.engines[node_id]
            if not engine.ep.alive:
                continue
            if node_id in record.locations:
                continue
            if record.group in engine.replicas:
                continue
            if not engine.participates_in(record.group):
                continue  # the spare does not run this group's ring
            rank = (len(engine._ring_members), len(engine.replicas), index)
            if best_rank is None or rank < best_rank:
                best, best_rank = node_id, rank
        return best

    # ------------------------------------------------------------------
    # Degree adaptation (raise/lower the target degree at runtime)
    # ------------------------------------------------------------------

    def grow_degree(self, group):
        """Add one replica on the best spare and raise ``min_replicas``.

        The bumped floor makes the growth sticky: degree restoration now
        maintains the higher degree through subsequent faults.  Returns
        the chosen node, or None when no eligible spare exists.
        """
        record = self._record(group)
        spare = self._pick_spare(record)
        if spare is None:
            return None
        self.add_member(group, spare)
        record.policy = record.policy.copy(
            min_replicas=max(record.policy.min_replicas,
                             len(record.locations)))
        return spare

    def shrink_degree(self, group, floor=1):
        """Retire one live backup replica (never the primary).

        Lowers ``min_replicas`` to the shrunken degree (bounded below by
        ``floor``) and returns the retired node to the spare pool so a
        later growth can reuse it.  Returns the node, or None when the
        group is already at the floor or has no removable live backup.
        """
        record = self._record(group)
        floor = max(int(floor), 1)
        if len(record.locations) <= floor:
            return None
        live = [node for node in record.locations
                if self.engines[node].ep.alive]
        primary = min(live) if live else None
        candidates = sorted(node for node in live if node != primary)
        if not candidates:
            return None
        victim = candidates[-1]
        self.remove_member(group, victim)
        record.policy = record.policy.copy(
            min_replicas=max(floor, min(record.policy.min_replicas,
                                        len(record.locations))))
        self.register_spare(victim)
        return victim

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _engine(self, node_id):
        engine = self.engines.get(node_id)
        if engine is None:
            raise ValueError("no engine registered for node %r" % (node_id,))
        return engine

    def _record(self, group):
        record = self.records.get(group)
        if record is None:
            raise ValueError("unknown object group %r" % (group,))
        return record
