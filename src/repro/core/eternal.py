"""The EternalSystem facade.

Builds a cluster where every node runs the complete stack and exposes the
operations a user of the system performs: create replicated objects,
obtain stubs, invoke operations, inject faults, and inspect outcomes.

The stack is composed over a :class:`~repro.runtime.base.Runtime`: by
default the deterministic :class:`~repro.runtime.SimRuntime` (virtual
time, seeded network model, partition injection), but the identical
protocol cores also run over :class:`~repro.runtime.AsyncioRuntime`
(real UDP sockets, wall-clock time) -- see ``tests/test_runtime_parity``
and ``examples/live_demo.py``.

Typical use (see examples/quickstart.py)::

    system = EternalSystem(["n1", "n2", "n3"]).start()
    ior = system.create_replicated(
        "counter", Counter, ["n1", "n2", "n3"],
        GroupPolicy(style=ReplicationStyle.ACTIVE),
    )
    stub = system.stub("n1", ior)
    assert system.call(stub.increment(5)) == 5
"""

from repro.orb.orb_core import ORB
from repro.replication.engine import ReplicationEngine
from repro.replication.manager import ReplicationManager
from repro.replication.rings import RingMap
from repro.runtime.sim import SimRuntime
from repro.totem.config import TotemConfig
from repro.totem.process_groups import GroupMember
from repro.totem.processor import TotemProcessor
from repro.totem.ringmux import RingMux


def build_ring_stacks(endpoint, ring_ids, totem_config=None, domain="ft-domain",
                      engine_options=None, ring_map=None):
    """Assemble the per-node stack for a node running several shard rings.

    One Totem processor and group-communication endpoint is built per
    ring id; when the node runs more than one ring, a
    :class:`~repro.totem.ringmux.RingMux` multiplexes the shared Totem
    port between them.  Returns ``(processors, members, orb, engine)``
    where the first two are dicts keyed by ring id.
    """
    config = totem_config or TotemConfig()
    ring_ids = tuple(sorted(set(ring_ids)))
    if not ring_ids:
        raise ValueError("a node must run at least one ring")
    mux = RingMux(endpoint) if len(ring_ids) > 1 else None
    processors = {}
    members = {}
    for rid in ring_ids:
        processor = TotemProcessor(endpoint, config=config, ring_id=rid,
                                   mux=mux)
        processors[rid] = processor
        members[rid] = GroupMember(processor)
    orb = ORB(endpoint)
    engine = ReplicationEngine(
        orb, members, domain=domain, ring_map=ring_map,
        **(engine_options or {})
    )
    return processors, members, orb, engine


def build_node_stack(endpoint, totem_config=None, domain="ft-domain",
                     engine_options=None):
    """Assemble the single-ring per-node protocol stack on one endpoint.

    Returns ``(processor, groups, orb, engine)``.  This is the
    composition point used by stand-alone single-ring hosts such as the
    multi-process ``examples/live_demo.py``; sharded topologies go
    through :func:`build_ring_stacks`.
    """
    processors, members, orb, engine = build_ring_stacks(
        endpoint, (0,), totem_config=totem_config, domain=domain,
        engine_options=engine_options,
    )
    return processors[0], members[0], orb, engine


class EternalNode:
    """The full per-node stack (one Totem processor per ring it runs)."""

    def __init__(self, system, node_id):
        self.system = system
        self.ep = system.runtime.add_node(node_id)
        ring_ids = system.rings_of_node(node_id)
        self.processors, self.members, self.orb, self.engine = (
            build_ring_stacks(
                self.ep, ring_ids, totem_config=system.totem_config,
                domain=system.domain, ring_map=system.ring_map,
            )
        )
        # Single-ring compatibility aliases: the node's lowest ring.
        first = min(self.processors)
        self.processor = self.processors[first]
        self.groups = self.members[first]

    @property
    def node_id(self):
        return self.ep.node_id

    def __repr__(self):
        return "EternalNode(%s, rings=%s)" % (
            self.node_id, sorted(self.processors),
        )


class EternalSystem:
    """A cluster running the fault-tolerant CORBA stack on one runtime."""

    def __init__(self, node_ids, seed=0, profile=None, totem_config=None,
                 domain="ft-domain", runtime=None, rings=None):
        self.runtime = runtime if runtime is not None else SimRuntime(
            seed=seed, profile=profile
        )
        # Ring topology: which shard rings exist and which nodes run each.
        # None -> the classic single ring 0 over every node; an int N ->
        # N rings all spanning every node (ring-parallel ordering); a dict
        # {ring_id: [nodes] | None} -> explicit (possibly disjoint) rings,
        # None meaning "every node".
        self.ring_topology = self._normalize_rings(rings)
        self.ring_map = RingMap(tuple(self.ring_topology))
        # Simulation-only conveniences (None on real-socket runtimes).
        self.sim = getattr(self.runtime, "sim", None)
        self.net = getattr(self.runtime, "net", None)
        self.telemetry = self.runtime.telemetry
        self.totem_config = totem_config or TotemConfig()
        self.domain = domain
        self.manager = ReplicationManager(domain, ring_map=self.ring_map)
        self.nodes = {}
        for node_id in node_ids:
            self.add_node(node_id)

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------

    @staticmethod
    def _normalize_rings(rings):
        if rings is None:
            return {0: None}
        if isinstance(rings, int):
            if rings < 1:
                raise ValueError("ring count must be >= 1, got %d" % rings)
            return {rid: None for rid in range(rings)}
        topology = {
            int(rid): (None if nodes is None else set(nodes))
            for rid, nodes in rings.items()
        }
        if not topology:
            raise ValueError("ring topology must name at least one ring")
        return topology

    def rings_of_node(self, node_id):
        """Sorted ring ids this node participates in (never empty)."""
        ring_ids = tuple(sorted(
            rid for rid, nodes in self.ring_topology.items()
            if nodes is None or node_id in nodes
        ))
        if not ring_ids:
            raise ValueError(
                "node %r is in no ring of the topology %s"
                % (node_id, {r: sorted(n) if n else "all"
                             for r, n in self.ring_topology.items()}))
        return ring_ids

    def add_node(self, node_id):
        """Add a node running the full stack (before or after start)."""
        eternal_node = EternalNode(self, node_id)
        self.nodes[node_id] = eternal_node
        self.manager.register_engine(eternal_node.engine)
        return eternal_node

    def node(self, node_id):
        return self.nodes[node_id]

    def engine(self, node_id):
        return self.nodes[node_id].engine

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self):
        """Boot every node's group-communication endpoints (all rings)."""
        for eternal_node in self.nodes.values():
            for processor in eternal_node.processors.values():
                processor.start()
        return self

    def run_for(self, duration):
        self.runtime.run_for(duration)
        return self

    def stabilize(self, timeout=5.0, settle=0.2):
        """Run until all live nodes share rings per component, plus settle.

        ``settle`` gives group announces time to propagate after the ring
        installs, so object-group views are in place.
        """
        runtime = self.runtime
        deadline = runtime.now + timeout
        step = 0.005
        while runtime.now < deadline:
            if self._rings_stable():
                break
            runtime.run_for(min(step, deadline - runtime.now))
        if not self._rings_stable():
            raise TimeoutError(
                "rings did not stabilize: %s"
                % {n.node_id: n.processor.state for n in self.nodes.values()}
            )
        runtime.run_for(settle)
        return self

    def _rings_stable(self):
        runtime = self.runtime
        for eternal_node in self.nodes.values():
            if not eternal_node.ep.alive:
                continue
            for rid, processor in eternal_node.processors.items():
                ring = processor.installed_ring
                if ring is None:
                    return False
                expected = [
                    node_id
                    for node_id in runtime.component_of(eternal_node.node_id)
                    if runtime.alive(node_id) and node_id in self.nodes
                    and rid in self.nodes[node_id].processors
                ]
                if list(ring.members) != expected:
                    return False
        return True

    # ------------------------------------------------------------------
    # Replicated objects
    # ------------------------------------------------------------------

    def create_replicated(self, group, factory, locations, policy=None,
                          ring=None):
        """Create a replicated object; returns its group IOR.

        ``ring`` pins the group to a shard ring (all ``locations`` must
        run it); by default the ring map's hash placement decides.
        """
        return self.manager.create_object(group, factory, locations, policy,
                                          ring=ring)

    def create_group(self, group, factory, locations, policy=None, ring=None):
        """Alias for :meth:`create_replicated` (FT-CORBA naming)."""
        return self.create_replicated(group, factory, locations, policy,
                                      ring=ring)

    def stub(self, node_id, ior, interface=None, read=None):
        """A client stub bound to a node's ORB.

        ``read`` (a :class:`~repro.replication.reads.ReadOptions`) opts
        the stub's READ_ONLY operations into the local read path.
        """
        return self.nodes[node_id].orb.stub(ior, interface, read=read)

    def call(self, future, timeout=30.0):
        """Drive the runtime until the invocation completes."""
        return self.runtime.wait_for(future, timeout=timeout)

    # ------------------------------------------------------------------
    # Fault management plane
    # ------------------------------------------------------------------

    def enable_fault_management(self, detector_node, interval=0.1,
                                timeout=None, miss_threshold=2, spares=()):
        """Wire up heartbeat detection, notification, and recovery.

        Every node exposes a PullMonitorable; ``detector_node`` runs a
        heartbeat detector over all the others; faults flow through a
        FaultNotifier to a RecoveryCoordinator that restores replication
        degrees on the given spare nodes.  Returns (detector, notifier,
        coordinator).
        """
        from repro.faultdetect import (
            FaultNotifier,
            HeartbeatFaultDetector,
            PullMonitorable,
            RecoveryCoordinator,
        )

        notifier = FaultNotifier(self.runtime)
        coordinator = RecoveryCoordinator(self.manager, notifier)
        detector_orb = self.nodes[detector_node].orb
        detector = HeartbeatFaultDetector(
            detector_orb, interval=interval, timeout=timeout,
            miss_threshold=miss_threshold,
            on_fault=lambda name, when: notifier.report(name, when),
        )
        for node_id, eternal_node in self.nodes.items():
            monitorable = PullMonitorable(eternal_node.ep)
            ior = eternal_node.orb.poa.activate(
                monitorable, object_key=PullMonitorable.OBJECT_KEY
            )
            if node_id != detector_node:
                detector.monitor(node_id, ior)
        for spare in spares:
            self.manager.register_spare(spare)
        detector.start()
        self.detector = detector
        self.notifier = notifier
        self.coordinator = coordinator
        return detector, notifier, coordinator

    # ------------------------------------------------------------------
    # Fault injection conveniences
    # ------------------------------------------------------------------

    def crash(self, node_id):
        self.runtime.crash(node_id)
        return self

    def recover(self, node_id):
        self.runtime.recover(node_id)
        return self

    def partition(self, components):
        self.runtime.partition(components)
        return self

    def merge(self):
        self.runtime.merge()
        return self

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    def replicas_of(self, group):
        """Live LocalReplica objects of a group, keyed by node."""
        return {
            node_id: eternal_node.engine.replicas[group]
            for node_id, eternal_node in self.nodes.items()
            if group in eternal_node.engine.replicas
        }

    def states_of(self, group):
        """Application states of all live, ready replicas of a group."""
        return {
            node_id: replica.servant.get_state()
            for node_id, replica in self.replicas_of(group).items()
            if replica.ready and self.runtime.alive(node_id)
        }
