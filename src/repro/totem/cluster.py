"""Convenience builder for a cluster of Totem processors.

Used by tests, examples, and benchmarks to assemble a runtime and one
processor (plus optional process-group endpoint) per node, and to run
the cluster until a stable ring forms.  By default the cluster runs on
the deterministic :class:`~repro.runtime.SimRuntime`; passing any other
:class:`~repro.runtime.base.Runtime` (e.g. the asyncio runtime) runs
the identical protocol code over that substrate instead.
"""

from repro.runtime.sim import SimRuntime
from repro.totem.config import TotemConfig
from repro.totem.process_groups import GroupMember
from repro.totem.processor import TotemProcessor


class TotemCluster:
    """A runtime + one Totem processor per node."""

    def __init__(self, node_ids, seed=0, profile=None, config=None,
                 with_groups=False, runtime=None, ring_id=0):
        self.runtime = runtime if runtime is not None else SimRuntime(
            seed=seed, profile=profile
        )
        # Simulation-only conveniences (None on real-socket runtimes).
        self.sim = getattr(self.runtime, "sim", None)
        self.net = getattr(self.runtime, "net", None)
        self.telemetry = self.runtime.telemetry
        self.config = config or TotemConfig()
        self.processors = {}
        self.groups = {}
        self.deliveries = {node_id: [] for node_id in node_ids}
        self.configs = {node_id: [] for node_id in node_ids}
        self.group_messages = {node_id: [] for node_id in node_ids}
        self.group_views = {node_id: [] for node_id in node_ids}
        for node_id in node_ids:
            endpoint = self.runtime.add_node(node_id)
            processor = TotemProcessor(
                endpoint,
                config=self.config,
                on_deliver=self._recorder(self.deliveries[node_id]),
                on_config=self._recorder(self.configs[node_id]),
                ring_id=ring_id,
            )
            self.processors[node_id] = processor
            if with_groups:
                # The GroupMember takes over the processor's callbacks; raw
                # deliveries are not recorded in this mode.
                self.groups[node_id] = GroupMember(
                    processor,
                    on_message=self._recorder(self.group_messages[node_id]),
                    on_view=self._recorder(self.group_views[node_id]),
                    on_config=self._recorder(self.configs[node_id]),
                )

    @staticmethod
    def _recorder(target):
        return target.append

    def start(self):
        """Boot every processor at the current time."""
        for processor in self.processors.values():
            processor.start()
        return self

    def live_processors(self):
        """Processors whose endpoint is currently up."""
        return [p for p in self.processors.values() if p.ep.alive]

    def stable(self):
        """True when every live processor has installed the same ring.

        With partitions in force, "the same ring" is evaluated per network
        component: every live processor must be operational on a ring whose
        membership matches the live members of its component.
        """
        runtime = self.runtime
        for processor in self.live_processors():
            ring = processor.installed_ring
            if ring is None:
                return False
            expected = [
                node_id
                for node_id in runtime.component_of(processor.node_id)
                if runtime.alive(node_id)
            ]
            if list(ring.members) != expected:
                return False
        # All processors sharing a component must agree on the ring id.
        seen = {}
        for processor in self.live_processors():
            component = tuple(runtime.component_of(processor.node_id))
            key = processor.installed_ring.key()
            if seen.setdefault(component, key) != key:
                return False
        return True

    def run_until_stable(self, timeout=5.0, step=0.005):
        """Advance the runtime until :meth:`stable` or ``timeout``.

        Returns the time at which stability was observed.  Raises
        ``TimeoutError`` if the deadline passes first.
        """
        runtime = self.runtime
        deadline = runtime.now + timeout
        while runtime.now < deadline:
            if self.stable():
                return runtime.now
            runtime.run_for(min(step, deadline - runtime.now))
        if self.stable():
            return runtime.now
        raise TimeoutError(
            "cluster did not stabilize within %.3fs: states=%s"
            % (
                timeout,
                {
                    p.node_id: (p.state, p.installed_ring)
                    for p in self.processors.values()
                },
            )
        )

    def delivered_payloads(self, node_id, kind=None):
        """Payloads delivered at a node, optionally filtered by envelope kind."""
        result = []
        for delivered in self.deliveries[node_id]:
            payload = delivered.payload
            if kind is None:
                result.append(payload)
            elif isinstance(payload, tuple) and payload and payload[0] == kind:
                result.append(payload)
        return result
