"""The ORB core: request/reply engine, stubs, futures, and routing.

The ORB is deliberately structured around a pluggable *router*: the
default :class:`DirectRouter` sends GIOP Requests over point-to-point
connections (the paper's unreplicated baseline), and the Eternal
interception layer replaces it to divert the same encoded GIOP messages
into the group communication system.  Application code is identical in
both cases -- that is the transparency property the paper's architecture
is built on.
"""

from repro.orb.cdr import decode_value, encode_value
from repro.orb.exceptions import (
    ApplicationError,
    CommFailure,
    InvObjref,
    TimeoutError_,
    system_exception_from_name,
)
from repro.orb.giop import (
    LocateReplyMessage,
    LocateRequestMessage,
    ReplyMessage,
    ReplyStatus,
    RequestMessage,
    decode_message,
    encode_message,
)
from repro.orb.idl import interface_of
from repro.orb.ior import IOR
from repro.orb.poa import POA
from repro.orb.transport import TcpTransport
from repro.runtime.sim import endpoint_of

DEFAULT_PORT = 683  # CORBA's historic IIOP port


class Future:
    """Completion handle for an asynchronous invocation.

    Futures are runtime-agnostic: they are resolved by protocol callbacks
    and awaited either by stepping virtual time (``wait_for`` below, or
    ``SimRuntime.wait_for``) or by the asyncio runtime's loop bridge.
    ``invoke`` stamps each future with the ``request_id`` of the GIOP
    request it tracks, so callers managing their own deadlines can cancel
    the pending entry (see ``ORB.forget_pending``).
    """

    request_id = None

    def __init__(self, sim=None):
        self._sim = sim
        self._done = False
        self._result = None
        self._exception = None
        self._callbacks = []

    def done(self):
        return self._done

    def result(self):
        """The invocation result; raises the invocation's exception if any."""
        if not self._done:
            raise RuntimeError("future is not resolved yet")
        if self._exception is not None:
            raise self._exception
        return self._result

    def exception(self):
        if not self._done:
            raise RuntimeError("future is not resolved yet")
        return self._exception

    def add_done_callback(self, callback):
        """Run ``callback(self)`` when resolved (immediately if already)."""
        if self._done:
            callback(self)
        else:
            self._callbacks.append(callback)

    def set_result(self, value):
        self._resolve(result=value)

    def set_exception(self, exc):
        self._resolve(exception=exc)

    def _resolve(self, result=None, exception=None):
        if self._done:
            return
        self._done = True
        self._result = result
        self._exception = exception
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)


def wait_for(sim, future, timeout=30.0, step=0.001):
    """Drive the simulation until ``future`` resolves; return its result.

    This is the bridge between test/benchmark code (outside the event loop)
    and the event-driven ORB.  Raises the future's exception, or
    ``TimeoutError`` if virtual ``timeout`` elapses first.  ``sim`` may be
    any object with ``now``/``run_for`` -- a Simulator or a SimRuntime.
    """
    deadline = sim.now + timeout
    while not future.done() and sim.now < deadline:
        sim.run_for(min(step, deadline - sim.now))
    if not future.done():
        raise TimeoutError("future unresolved after %.3fs of virtual time" % timeout)
    return future.result()


class Stub:
    """Dynamic client proxy: attribute access yields invocation methods.

    Each method call returns a :class:`Future`.  If an interface class is
    supplied, operation names are checked and oneway flags honored;
    otherwise every operation is assumed two-way.

    ``read`` (a ``repro.replication.reads.ReadOptions``) opts declared
    READ_ONLY operations into the local read path: with an interface the
    annotation is attached only to operations the interface declares
    read-only; without one it is attached to every two-way call and the
    *server* interface check routes mutating operations back to the
    ordered path.
    """

    def __init__(self, orb, ior, interface=None, read=None):
        self._orb = orb
        self._ior = ior
        self._interface = interface_of(interface) if interface is not None else None
        self._read = read

    @property
    def ior(self):
        return self._ior

    def reading(self, read):
        """A copy of this stub with different read options."""
        stub = Stub.__new__(Stub)
        stub._orb = self._orb
        stub._ior = self._ior
        stub._interface = self._interface
        stub._read = read
        return stub

    def __getattr__(self, name):
        if name.startswith("_"):
            raise AttributeError(name)
        response_expected = True
        read = self._read
        if self._interface is not None:
            info = self._interface.operation_info(name)
            response_expected = not info.oneway
            if not info.read_only:
                read = None

        def call(*args):
            return self._orb.invoke(
                self._ior, name, args, response_expected=response_expected,
                read=read,
            )

        call.__name__ = name
        return call

    def __repr__(self):
        return "Stub(%s)" % (self._ior.type_id,)


class DirectRouter:
    """Unreplicated request routing over point-to-point connections.

    Multi-profile references (FT-CORBA's IOGR shape) fail over here: if
    connecting to a profile fails, the next profile is tried before the
    request is failed -- the standard client-side behaviour for object
    group references resolved outside a replication domain.  The same
    applies *after* connecting: when an established connection dies with
    requests in flight, each of those requests is re-sent to its
    remaining profiles (rather than failed outright), so multi-profile
    references ride out mid-invocation server crashes.
    """

    def __init__(self, orb):
        self.orb = orb
        self._connections = {}
        # request id -> {profiles, request, data, key}: in-flight routing
        # state for reply-expected requests, consulted when a connection
        # dies so its pending requests can be rerouted.
        self._routes = {}

    def send_request(self, ior, request, future):
        profiles = ior.iiop_profiles()
        if not profiles:
            future.set_exception(InvObjref("reference has no IIOP profile"))
            return
        data = encode_message(request)
        remaining = list(profiles)
        if request.response_expected:
            self.orb._pending[request.request_id] = future
            self._routes[request.request_id] = {
                "profiles": remaining, "request": request,
                "data": data, "key": None,
            }
        else:
            future.set_result(None)
        self._try_profiles(remaining, request, data)

    def drop_route(self, request_id):
        """Forget a request's routing state (it resolved or was failed)."""
        self._routes.pop(request_id, None)

    def _try_profiles(self, profiles, request, data):
        profile = profiles.pop(0)
        route = self._routes.get(request.request_id)
        if route is not None:
            route["key"] = (profile.host, profile.port)

        def failed(error):
            if profiles:
                self.orb.ep.emit(
                    "orb.profile.failover",
                    {"from": profile.host, "remaining": len(profiles)},
                )
                self._try_profiles(profiles, request, data)
            else:
                self.orb._fail_request(request.request_id, error)

        self._with_connection(profile, lambda conn: conn.send(data), failed)

    def _with_connection(self, profile, action, on_error):
        key = (profile.host, profile.port)
        conn = self._connections.get(key)
        if conn is not None and not conn.closed:
            action(conn)
            return

        def connected(new_conn):
            new_conn.on_message = self.orb._on_client_data
            new_conn.on_close = lambda c, err: self._on_close(key, err)
            self._connections[key] = new_conn
            action(new_conn)

        self.orb.transport.connect(
            profile.host, profile.port, connected, on_error
        )

    def _on_close(self, key, error):
        self._connections.pop(key, None)
        if error is None:
            return
        # Only the requests routed over this connection are affected;
        # each falls over to its remaining profiles or fails alone.
        affected = [
            request_id for request_id, route in self._routes.items()
            if route["key"] == key
        ]
        for request_id in affected:
            route = self._routes.get(request_id)
            if route is None or request_id not in self.orb._pending:
                self._routes.pop(request_id, None)
                continue
            if route["profiles"]:
                self.orb.ep.emit(
                    "orb.profile.failover",
                    {"from": key[0], "remaining": len(route["profiles"])},
                )
                self._try_profiles(
                    route["profiles"], route["request"], route["data"]
                )
            else:
                self.orb._fail_request(request_id, error)

    def close(self):
        for conn in list(self._connections.values()):
            conn.close()
        self._connections.clear()
        self._routes.clear()


class ORB:
    """One Object Request Broker per node.

    Args:
        network: a runtime :class:`~repro.runtime.base.Endpoint`, or (the
            legacy two-argument form) a simulated network followed by the
            hosting node.
        node: the hosting node when ``network`` is a Network.
        port: IIOP listen port.
        request_timeout: relative round-trip timeout for invocations, in
            seconds; expiry resolves the Future with ``TIMEOUT``.
    """

    def __init__(self, network, node=None, port=DEFAULT_PORT, request_timeout=10.0):
        self.ep = endpoint_of(network, node)
        self.node_id = self.ep.node_id
        self.port = port
        self.request_timeout = request_timeout
        self.transport = TcpTransport(self.ep)
        self.poa = POA(self)
        self.router = DirectRouter(self)
        # request id -> (target IOR, RequestMessage): retained so a
        # LOCATION_FORWARD reply can transparently re-issue the request.
        self._pending_meta = {}
        # Execution context of the servant code currently running, if any;
        # set by the POA around dispatch so nested invocations can be
        # attributed to their parent operation (see repro.replication).
        self.current_context = None
        self._pending = {}
        # request id -> handle of its armed ``orb.timeout`` timer.
        self._timeouts = {}
        self._request_counter = 0
        self._acceptor = self.transport.listen(port, self._on_accept)

    # ------------------------------------------------------------------
    # Client side
    # ------------------------------------------------------------------

    def stub(self, ior, interface=None, read=None):
        """Create a client proxy for a reference (accepts IOR or string).

        ``read`` opts the stub's declared read-only operations into the
        local read path; see :class:`Stub`.
        """
        if isinstance(ior, str):
            ior = IOR.from_string(ior)
        return Stub(self, ior, interface, read=read)

    def next_request_id(self):
        self._request_counter += 1
        return self._request_counter

    def invoke(self, target, operation, args=(), response_expected=True, timeout=None,
               read=None):
        """Invoke ``operation`` on a target IOR/stub; returns a Future.

        ``timeout`` overrides the ORB-wide request timeout; passing ``0``
        disarms the ORB's deadline entirely -- the caller owns the
        deadline and resolves or forgets the request itself (the fault
        detectors do this to avoid one throwaway timer per heartbeat).

        ``read`` (``ReadOptions`` or an equivalent dict) annotates the
        request's service context so the interception point may serve it
        on the local read path instead of the ordered one.
        """
        if isinstance(target, Stub):
            target = target.ior
        if isinstance(target, str):
            target = IOR.from_string(target)
        future = Future()
        request = RequestMessage(
            self.next_request_id(),
            self._object_key_for(target),
            operation,
            encode_value(tuple(args)),
            response_expected=response_expected,
        )
        if read is not None and response_expected:
            request.service_context["read"] = (
                read.as_context() if hasattr(read, "as_context") else dict(read)
            )
        future.request_id = request.request_id
        self.ep.emit("orb.invoke", {"op": operation, "node": self.node_id})
        if response_expected:
            self._pending_meta[request.request_id] = (target, request)
            if timeout != 0:
                self._arm_request_timeout(request.request_id, operation, timeout)
        self.router.send_request(target, request, future)
        return future

    @staticmethod
    def _object_key_for(ior):
        group = ior.group_profile()
        if group is not None:
            return "group:%s" % group.group_name
        return ior.iiop_profiles()[0].object_key if ior.iiop_profiles() else ""

    def _arm_request_timeout(self, request_id, operation, timeout):
        limit = timeout if timeout is not None else self.request_timeout

        def expire():
            self._fail_request(request_id, TimeoutError_(
                "request %d (%s) after %.3fs" % (request_id, operation, limit)))

        self._timeouts[request_id] = self.ep.timer(limit, expire, "orb.timeout")

    def _settle(self, request_id):
        """The request resolved one way or another: drop its bookkeeping
        (deadline timer included) and return its Future, if still pending."""
        timer = self._timeouts.pop(request_id, None)
        if timer is not None:
            timer.cancel()
        self._pending_meta.pop(request_id, None)
        self._drop_route(request_id)
        return self._pending.pop(request_id, None)

    def _drop_route(self, request_id):
        drop = getattr(self.router, "drop_route", None)
        if drop is not None:
            drop(request_id)

    def _fail_request(self, request_id, error):
        future = self._settle(request_id)
        if future is not None:
            future.set_exception(error)

    def _fail_all_pending(self, error):
        for request_id in list(self._pending):
            self._fail_request(request_id, error)

    def _on_client_data(self, conn, data):
        message = decode_message(data)
        if isinstance(message, ReplyMessage):
            self.complete_reply(message)
        elif isinstance(message, LocateReplyMessage):
            future = self._settle(message.request_id)
            if future is not None:
                future.set_result(message.locate_status)

    def complete_reply(self, reply):
        """Resolve the pending future matching a Reply (used by routers).

        A LOCATION_FORWARD reply re-issues the original request at the
        forwarded reference on the same future, invisibly to the caller.
        """
        meta = self._pending_meta.get(reply.request_id)
        future = self._settle(reply.request_id)
        if future is None:
            return False
        if reply.status == ReplyStatus.LOCATION_FORWARD and meta is not None:
            _old_target, original = meta
            forward = IOR.from_string(decode_value(reply.body))
            self.ep.emit("orb.forwarded", {"op": original.operation})
            request = RequestMessage(
                self.next_request_id(),
                self._object_key_for(forward),
                original.operation,
                original.body,
                response_expected=True,
                service_context=dict(original.service_context),
            )
            self._pending[request.request_id] = future
            self._pending_meta[request.request_id] = (forward, request)
            self.router.send_request(forward, request, future)
            return True
        self.resolve_future_from_reply(future, reply)
        return True

    @staticmethod
    def resolve_future_from_reply(future, reply):
        """Resolve a Future from a GIOP Reply's status and body.

        Routers that correlate replies by means other than request id (the
        replication layer matches on operation identifiers) use this to
        apply the standard status mapping.
        """
        if reply.status == ReplyStatus.NO_EXCEPTION:
            future.set_result(decode_value(reply.body))
        elif reply.status == ReplyStatus.SYSTEM_EXCEPTION:
            name, detail, minor = decode_value(reply.body)
            future.set_exception(system_exception_from_name(name, detail, minor))
        else:
            exc_type, detail = decode_value(reply.body)
            future.set_exception(ApplicationError(exc_type, detail))

    def forget_pending(self, request_id):
        """Drop a pending-future entry (its owner resolves it directly)."""
        return self._settle(request_id)

    # ------------------------------------------------------------------
    # Server side
    # ------------------------------------------------------------------

    def _on_accept(self, conn):
        conn.on_message = self._on_server_data

    def _on_server_data(self, conn, data):
        message = decode_message(data)
        if isinstance(message, RequestMessage):
            # Name the requesting node so replicated receivers (the
            # gateway tier) can derive client-deterministic operation ids.
            peer = getattr(conn, "peer_node", None)
            if peer is not None:
                message.service_context["x-peer-node"] = peer

            def respond(reply):
                if reply is not None and not conn.closed:
                    conn.send(encode_message(reply))

            self.poa.dispatch(message, respond)
        elif isinstance(message, LocateRequestMessage):
            status = (
                LocateReplyMessage.OBJECT_HERE
                if self.poa.servant(message.object_key) is not None
                else LocateReplyMessage.UNKNOWN_OBJECT
            )
            conn.send(encode_message(LocateReplyMessage(message.request_id, status)))

    def locate(self, ior):
        """Send a LocateRequest for the reference; Future of locate status."""
        profile = ior.iiop_profiles()[0]
        future = Future()
        request = LocateRequestMessage(self.next_request_id(), profile.object_key)
        future.request_id = request.request_id
        self._pending[request.request_id] = future
        data = encode_message(request)
        self.router._with_connection(
            profile,
            lambda conn: conn.send(data),
            lambda error: self._fail_request(request.request_id, error),
        )
        self._arm_request_timeout(request.request_id, "_locate", None)
        return future

    def shutdown(self):
        """Close listening port and client connections."""
        self._acceptor.close()
        self.router.close()
        self._fail_all_pending(CommFailure("ORB shutdown"))
