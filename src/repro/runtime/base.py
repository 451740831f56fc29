"""The runtime contract the sans-I/O protocol cores are written against.

An :class:`Endpoint` is one node's window onto the world: it can read the
clock, arm timers, send datagrams to named ports of peer endpoints, and
register handlers for bytes arriving on its own ports.  A
:class:`Runtime` owns a set of endpoints plus the machinery that drives
them (a virtual-time scheduler or a real event loop) and the shared
:class:`~repro.simnet.trace.TraceLog` all layers emit counters into.

The protocol cores hold an Endpoint and nothing else.  The full event
flow is::

    bytes in  --> bind() handler --> protocol state machine --> send()/broadcast() --> frames out
    timer fires -> timer() callback -^                      '--> timer() requests

Contract notes:

- ``send``/``broadcast`` are datagram semantics: unreliable, unordered
  across flows, silently dropped toward dead or unreachable peers.
  Reliability and ordering are protocol-core concerns (Totem's
  retransmission, the ORB transport's ack/RTO machinery), which is what
  lets the same cores run over lossy simnet links and real UDP alike.
- ``timer`` callbacks are incarnation-guarded: a timer armed before a
  crash or restart of its endpoint never fires afterwards.
- Payloads are bytes-like (``bytes``, ``bytearray`` or ``memoryview``).
  Real-socket runtimes reject anything else at ``send``; a protocol core
  handed a non-bytes payload by its port handler counts a wire error
  and drops it.
"""


class Endpoint:
    """Abstract per-node runtime handle (see module docstring).

    Concrete endpoints provide, at minimum:

    - ``node_id``: the endpoint's stable string identity.
    - ``alive`` (property): False after a crash, True after recovery.
    - ``incarnation`` (property): bumped on every recovery.
    - ``now`` (property): the runtime's clock, seconds.
    - ``rng``: named deterministic random streams
      (:class:`~repro.simnet.rng.RngStreams`).
    - ``timer(delay, callback, label="")``: arm an incarnation-guarded
      one-shot timer; returns a handle with ``cancel()``.
    - ``emit(category, detail=None, size=0)``: bump the shared trace
      counters (and byte counters when ``size`` is given).  Categories
      are typed: every string used here must be registered in
      :mod:`repro.telemetry.events` (enforced by the registry lint test).
    - ``telemetry``: the runtime's shared
      :class:`~repro.telemetry.Telemetry` bundle (metrics registry, span
      tracker, flight recorder).  Required: protocol cores read it once
      at construction and use it unguarded.
    - ``bind(port, handler)`` / ``unbind(port)``: attach
      ``handler(src_id, payload, size)`` to a named datagram port.
    - ``send(dst, port, data, size=None)``: unicast a datagram.
    - ``broadcast(port, data, size=None, include_self=True)``: send one
      datagram to every known endpoint.
    - ``on_crash(listener)`` / ``on_recover(listener)``: lifecycle hooks
      with the hosting node as the single argument.
    """

    node_id = None

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, self.node_id)


class Runtime:
    """Abstract driver owning endpoints, a clock, and the trace log.

    Concrete runtimes provide:

    - ``trace``: the shared :class:`~repro.simnet.trace.TraceLog`.
    - ``telemetry``: the shared :class:`~repro.telemetry.Telemetry`
      (one per runtime; endpoints expose the same object).
    - ``now`` (property): current time in seconds.
    - ``add_node(node_id)``: create and register an :class:`Endpoint`.
    - ``endpoint(node_id)``: look up a registered endpoint.
    - ``node_ids()``: all registered node ids (local and remote peers).
    - ``alive(node_id)``: liveness as far as this runtime knows.
    - ``component_of(node_id)``: sorted ids sharing a network component
      (partition-aware under simulation; everyone, on a real network).
    - ``run_for(duration)``: drive the event loop for ``duration``
      seconds (virtual or wall-clock).
    - ``wait_for(future, timeout)``: drive until a repro Future
      resolves; return its result or raise.
    - ``emit(category, detail=None, size=0)``: trace at current time.
    - ``close()``: release any real resources (sockets, loops).
    """

    trace = None
    telemetry = None

    def emit(self, category, detail=None, size=0):
        self.trace.emit(self.now, category, detail, size)

    def close(self):
        pass
