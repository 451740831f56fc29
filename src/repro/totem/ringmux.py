"""Ring multiplexer: several Totem rings sharing one endpoint.

A node that participates in more than one ring runs one
:class:`~repro.totem.processor.TotemProcessor` per ring, but the runtime
endpoint has a single ``"totem"`` port.  The :class:`RingMux` owns that
binding: it peeks the ring id carried in the wire-frame header
(:func:`repro.wire.framing.peek_ring`) and hands the datagram to the
matching ring's processor without decoding any message bodies, so
co-hosted rings multiplex the endpoint with no cross-talk.

Datagrams for a ring this node does not run are dropped with a
``totem.ring.mismatch`` event -- in a sharded domain every broadcast
reaches every node, so drops of foreign-ring traffic are routine, and
the event counter is how per-ring traffic attribution sees them.

A datagram that is not a well-formed wire frame -- foreign magic,
truncated header, or a payload that is not bytes at all -- is dropped
with a ``totem.wire.error`` event and never reaches a processor.
"""

from repro.wire.framing import WireFormatError, peek_ring

PORT = "totem"


def datagram_ring(ep, payload):
    """The ring id stamped on a Totem datagram, or None when it is not a
    wire frame (counted as a ``totem.wire.error`` drop).

    Every datagram's frames all carry the sender ring's id, so peeking
    the first header suffices.
    """
    if isinstance(payload, (bytes, bytearray, memoryview)):
        try:
            return peek_ring(payload)
        except WireFormatError as err:
            error = str(err)
    else:
        error = "payload is %s, not bytes" % type(payload).__name__
    ep.emit("totem.wire.error", {"node": ep.node_id, "error": error})
    return None


class RingMux:
    """Binds the shared Totem port and routes datagrams by ring id."""

    def __init__(self, endpoint):
        self.ep = endpoint
        self.node_id = endpoint.node_id
        self._handlers = {}
        self.ep.bind(PORT, self._on_message)

    def register(self, ring_id, handler):
        """Register ``handler(src, payload, size)`` for one ring id."""
        if ring_id in self._handlers:
            raise ValueError(
                "ring %d already registered on node %s" % (ring_id, self.node_id))
        self._handlers[ring_id] = handler

    def ensure_bound(self):
        """Re-claim the port binding (endpoint bindings reset on crash)."""
        self.ep.bind(PORT, self._on_message)

    @property
    def ring_ids(self):
        return tuple(sorted(self._handlers))

    def _on_message(self, src, payload, size):
        ring = datagram_ring(self.ep, payload)
        if ring is None:
            return
        handler = self._handlers.get(ring)
        if handler is None:
            self.ep.emit(
                "totem.ring.mismatch",
                {"node": self.node_id, "ring_id": ring, "src": src},
            )
            return
        handler(src, payload, size)

    def __repr__(self):
        return "RingMux(%s, rings=%s)" % (self.node_id, list(self.ring_ids))
