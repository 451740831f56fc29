"""Real-socket runtime: the same protocol cores over asyncio UDP.

Every endpoint owns one UDP socket bound on localhost (or a given host);
the named-port multiplexing that simnet provides is reproduced with a
one-byte port-name prefix on each datagram.  Broadcast -- Totem's
hardware multicast in the paper's testbed -- becomes a unicast fan-out
to every registered peer address, which over the loopback interface
costs what a multicast would.

Peers may live in the same process (in-process clusters for parity
tests and benchmarks) or in other processes (``register_peer`` with a
pre-agreed address map; see ``examples/live_demo.py``).  Either way the
protocol cores are byte-in/byte-out state machines and cannot tell the
difference from the simulated runtime, except that time is now
wall-clock and delivery is as reliable as the kernel's loopback.

Timers are ``loop.call_later`` with the same incarnation guard simnet
nodes apply: a timer armed before an endpoint crash/recovery never
fires afterwards.  Datagrams arrive through asyncio's datagram protocol
(one callback per datagram) on the stdlib event loop.
"""

import asyncio

from repro.runtime.base import Endpoint, Runtime
from repro.simnet.errors import UnknownNodeError
from repro.simnet.rng import RngStreams
from repro.simnet.trace import TraceLog
from repro.telemetry import Telemetry

_MAX_PORT_NAME = 255

#: Receive-buffer size: no UDP datagram is longer than 65 507 bytes.
MAX_DATAGRAM = 65536

# Port names are a handful of short constants ("totem", "orb", ...), so
# the length-prefixed name header is cached per port: steady-state
# framing is one dict hit plus one join, never an encode.
_PORT_PREFIX_CACHE = {}
_PORT_PREFIX_CACHE_MAX = 1024


def _port_prefix(port):
    prefix = _PORT_PREFIX_CACHE.get(port)
    if prefix is None:
        name = port.encode("ascii")
        if len(name) > _MAX_PORT_NAME:
            raise ValueError("port name too long: %r" % (port,))
        prefix = bytes([len(name)]) + name
        if len(_PORT_PREFIX_CACHE) < _PORT_PREFIX_CACHE_MAX:
            _PORT_PREFIX_CACHE[port] = prefix
    return prefix


def _frame_datagram(port, payload):
    prefix = _port_prefix(port)
    if not isinstance(payload, (bytes, bytearray, memoryview)):
        raise TypeError(
            "real-socket runtime requires bytes payloads (got %s)"
            % type(payload).__name__
        )
    if type(payload) is bytes:
        return prefix + payload
    return b"".join((prefix, payload))


def _unframe_datagram(data):
    name_len = data[0]
    port = data[1:1 + name_len].decode("ascii")
    return port, memoryview(data)[1 + name_len:]


class _GuardedTimer:
    """A ``call_later`` handle that respects endpoint crash/recovery."""

    __slots__ = ("handle", "cancelled")

    def __init__(self, handle):
        self.handle = handle
        self.cancelled = False

    def cancel(self):
        if not self.cancelled:
            self.cancelled = True
            self.handle.cancel()


class _EndpointProtocol(asyncio.DatagramProtocol):
    def __init__(self, endpoint):
        self.endpoint = endpoint

    def datagram_received(self, data, addr):
        self.endpoint._datagram_received(data, addr)

    def error_received(self, exc):
        self.endpoint.emit("net.error", {"error": str(exc)})


class AsyncioEndpoint(Endpoint):
    """One protocol-stack host bound to a real UDP socket."""

    def __init__(self, runtime, node_id):
        self.runtime = runtime
        self.node_id = node_id
        self.alive = True
        self.incarnation = 0
        self.address = None
        self._transport = None
        self._ports = {}
        self._crash_listeners = []
        self._recover_listeners = []

    # -- clock, timers, randomness, trace ------------------------------

    @property
    def now(self):
        return self.runtime.now

    @property
    def rng(self):
        return self.runtime.rng

    def timer(self, delay, callback, label=""):
        incarnation = self.incarnation
        timer = _GuardedTimer(None)

        def guarded():
            if (not timer.cancelled and self.alive
                    and self.incarnation == incarnation):
                callback()

        timer.handle = self.runtime.loop.call_later(max(delay, 0.0), guarded)
        return timer

    def emit(self, category, detail=None, size=0):
        self.runtime.emit(category, detail, size)

    @property
    def telemetry(self):
        return self.runtime.telemetry

    # -- lifecycle ------------------------------------------------------

    def on_crash(self, listener):
        self._crash_listeners.append(listener)

    def on_recover(self, listener):
        self._recover_listeners.append(listener)

    def crash(self):
        """Simulate a process crash: drop traffic, silence timers."""
        if not self.alive:
            return
        self.alive = False
        self.emit("node.crash", {"node": self.node_id})
        for listener in list(self._crash_listeners):
            listener(self)

    def recover(self):
        if self.alive:
            return
        self.alive = True
        self.incarnation += 1
        self.emit("node.recover", {"node": self.node_id})
        for listener in list(self._recover_listeners):
            listener(self)

    # -- datagram I/O ---------------------------------------------------

    def bind(self, port, handler):
        self._ports[port] = handler

    def unbind(self, port):
        self._ports.pop(port, None)

    def send(self, dst, port, data, size=None):
        if not self.alive or self._transport is None:
            return False
        addr = self.runtime.address_of(dst)
        datagram = _frame_datagram(port, data)
        self.emit("net.send", {"src": self.node_id, "dst": dst, "port": port},
                  size if size is not None else len(data))
        self._transport.sendto(datagram, addr)
        return True

    def broadcast(self, port, data, size=None, include_self=True):
        if not self.alive or self._transport is None:
            return []
        datagram = _frame_datagram(port, data)
        self.emit("net.broadcast", {"src": self.node_id, "port": port},
                  size if size is not None else len(data))
        destinations = []
        # Iterate the runtime's address table directly: broadcast is the
        # per-multicast hot path and must not copy the dict each call.
        # (Registration never happens concurrently with traffic.)
        for dst, addr in self.runtime._addresses.items():
            if dst == self.node_id and not include_self:
                continue
            destinations.append(dst)
            self._transport.sendto(datagram, addr)
        return destinations

    def _datagram_received(self, data, addr):
        if not self.alive:
            return
        src = self.runtime.node_for_address(addr)
        if src is None:
            self.emit("net.drop.unknown_peer", {"addr": repr(addr)})
            return
        try:
            port, payload = _unframe_datagram(data)
        except (IndexError, UnicodeDecodeError):
            self.emit("net.drop.malformed", {"src": src})
            return
        handler = self._ports.get(port)
        if handler is None:
            self.emit("node.drop.unbound", {"node": self.node_id, "port": port})
            return
        self.emit("net.deliver",
                  {"src": src, "dst": self.node_id, "port": port}, len(payload))
        handler(src, payload, len(payload))

    def close(self):
        if self._transport is not None:
            self._transport.close()
            self._transport = None


class AsyncioRuntime(Runtime):
    """Runtime driving the protocol cores with real sockets and time."""

    def __init__(self, seed=0, loop=None, host="127.0.0.1"):
        self.loop = loop if loop is not None else asyncio.new_event_loop()
        self._owns_loop = loop is None
        self.host = host
        self.trace = TraceLog()
        self.telemetry = Telemetry(self.trace)
        self.rng = RngStreams(seed)
        self.endpoints = {}
        self._addresses = {}   # node id -> (host, port), local and remote
        self._addr_to_node = {}
        self._closed = False

    # -- topology -------------------------------------------------------

    def add_node(self, node_id, port=0):
        """Create a local endpoint with its own UDP socket.

        ``port=0`` picks an ephemeral port; pass a concrete port when a
        pre-agreed address map is shared across processes.
        """
        if node_id in self._addresses:
            raise ValueError("duplicate node id: %r" % (node_id,))
        endpoint = AsyncioEndpoint(self, node_id)
        transport, _protocol = self.loop.run_until_complete(
            self.loop.create_datagram_endpoint(
                lambda: _EndpointProtocol(endpoint),
                local_addr=(self.host, port),
            )
        )
        # asyncio's datagram transport allocates ``max_size`` bytes for every
        # recvfrom and shrinks the result: 256 KiB by default, four times
        # what a UDP datagram can carry and above glibc's heap-trim
        # threshold, so a loop that never idles pays a brk()/page-fault
        # round per datagram once those buffers sit at the top of the heap.
        if hasattr(transport, "max_size"):
            transport.max_size = MAX_DATAGRAM
        endpoint._transport = transport
        endpoint.address = transport.get_extra_info("sockname")[:2]
        self.endpoints[node_id] = endpoint
        self._register(node_id, endpoint.address)
        return endpoint

    def register_peer(self, node_id, address):
        """Declare a remote endpoint hosted by another process."""
        if node_id in self._addresses:
            raise ValueError("duplicate node id: %r" % (node_id,))
        self._register(node_id, tuple(address))

    def _register(self, node_id, address):
        self._addresses[node_id] = address
        self._addr_to_node[address] = node_id

    def endpoint(self, node_id):
        try:
            return self.endpoints[node_id]
        except KeyError:
            raise UnknownNodeError(node_id) from None

    def address_of(self, node_id):
        try:
            return self._addresses[node_id]
        except KeyError:
            raise UnknownNodeError(node_id) from None

    def addresses(self):
        return dict(self._addresses)

    def node_for_address(self, addr):
        return self._addr_to_node.get(tuple(addr[:2]))

    def node_ids(self):
        return list(self._addresses)

    def alive(self, node_id):
        endpoint = self.endpoints.get(node_id)
        # Remote peers are presumed alive; their failures manifest through
        # the protocols (token loss, missed heartbeats), as on a real LAN.
        return endpoint.alive if endpoint is not None else True

    def component_of(self, node_id):
        # Real networks do not expose partition oracles; everyone known is
        # presumed reachable, and the protocols discover otherwise.
        return sorted(self._addresses)

    # -- fault injection (in-process endpoints only) --------------------

    def crash(self, node_id):
        self.endpoint(node_id).crash()

    def recover(self, node_id):
        self.endpoint(node_id).recover()

    def partition(self, components):
        raise NotImplementedError(
            "real-socket runtime cannot inject partitions; "
            "use SimRuntime or drop packets externally"
        )

    def merge(self):
        raise NotImplementedError(
            "real-socket runtime cannot inject partitions")

    # -- driving --------------------------------------------------------

    @property
    def now(self):
        return self.loop.time()

    def run_for(self, duration):
        self.loop.run_until_complete(asyncio.sleep(duration))

    def run_forever(self):
        self.loop.run_forever()

    def spawn(self, coro):
        """Schedule a coroutine on the runtime's loop."""
        return self.loop.create_task(coro)

    def wait_for(self, future, timeout=30.0):
        """Drive the loop until a repro Future resolves."""
        resolved = self.loop.create_future()

        def done(_fut):
            if not resolved.done():
                resolved.set_result(None)

        future.add_done_callback(done)
        try:
            self.loop.run_until_complete(
                asyncio.wait_for(resolved, timeout))
        except asyncio.TimeoutError:
            raise TimeoutError(
                "future unresolved after %.3fs of wall-clock time"
                % timeout) from None
        return future.result()

    def close(self):
        if self._closed:
            return
        self._closed = True
        for endpoint in self.endpoints.values():
            endpoint.close()
        # Let transport close callbacks run before tearing the loop down.
        self.loop.run_until_complete(asyncio.sleep(0))
        self.loop.run_until_complete(asyncio.sleep(0))
        if self._owns_loop:
            self.loop.close()
