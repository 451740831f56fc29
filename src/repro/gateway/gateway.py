"""The gateway service bridging plain IIOP clients to object groups."""

import zlib

from repro.orb.giop import ReplyMessage
from repro.orb.ior import IOR, IIOPProfile


class Gateway:
    """Bridges unreplicated TCP clients into the replication domain.

    Runs on a node that participates in the group communication system
    (its engine provides the multicast path).  ``export(group_ior)``
    returns a plain IIOP reference external clients can use; requests
    arriving on it are re-issued as group invocations by the gateway's
    engine -- the gateway's client group provides the operation
    identifiers, so retries and failovers stay duplicate-suppressed.

    A gateway may belong to a :class:`GatewayTier`: forwarded requests
    then carry operation identifiers derived from the requesting node and
    GIOP request id, so a client whose connection dies mid-invocation can
    be rerouted to *another* gateway replica and still have the retry
    suppressed as a duplicate of the original.
    """

    def __init__(self, engine, tier=None):
        self.engine = engine
        self.orb = engine.orb
        self.ep = engine.ep
        self.exports = {}
        self.tier = tier
        self._telemetry = self.ep.telemetry
        self._forwarded_local = 0
        self.orb.poa.default_handler = self._handle

    @property
    def forwarded(self):
        """Forwarded-request count: the runtime-wide ``gateway.forwarded``
        counter."""
        return self._telemetry.metrics.counter("gateway.forwarded").value

    def export(self, group_ior, type_id=None):
        """Expose a group reference as a plain IIOP reference.

        External clients resolve the returned IOR like any unreplicated
        CORBA object; they need no knowledge of the replication domain.
        Re-exporting an already exported group replaces the binding.
        """
        group = group_ior.group_profile()
        if group is None:
            raise ValueError("export() requires a group reference")
        object_key = "gateway:%s" % group.group_name
        if object_key in self.exports:
            self.ep.emit("gateway.export.replaced", {"key": object_key})
        self.exports[object_key] = group_ior
        self._telemetry.metrics.gauge("gateway.exports").set(
            len(self.exports))
        profile = IIOPProfile(self.orb.node_id, self.orb.port, object_key)
        return IOR(type_id or group_ior.type_id, [profile])

    def _handle(self, request, respond):
        group_ior = self.exports.get(request.object_key)
        if group_ior is None:
            return False
        self._forwarded_local += 1
        self._telemetry.metrics.counter("gateway.forwarded").inc()
        self.ep.emit("gateway.forward", {"key": request.object_key,
                                          "op": request.operation})
        read_context = request.service_context.get("read")
        if (request.response_expected and read_context is not None
                and self.engine.reads.wants_local(read_context)):
            # An external client's annotated read: route it to the
            # nearest/least-loaded eligible replica, falling back to the
            # ordered group invocation on rejection or lease loss.
            group = group_ior.group_profile().group_name
            future = self.engine.reads.invoke_with_fallback(
                group, request.operation, _decode_args(request),
                read_context,
                ordered=lambda: self.engine.invoke_group(
                    group_ior,
                    request.operation,
                    _decode_args(request),
                    operation_id=self._tier_operation_id(request)
                    if self.tier is not None else None,
                    client_group=self.tier.group
                    if self.tier is not None else None,
                ),
            )
        elif self.tier is not None:
            future = self.engine.invoke_group(
                group_ior,
                request.operation,
                _decode_args(request),
                response_expected=request.response_expected,
                operation_id=self._tier_operation_id(request),
                client_group=self.tier.group,
            )
        else:
            future = self.orb.invoke(
                group_ior,
                request.operation,
                _decode_args(request),
                response_expected=request.response_expected,
            )
        if not request.response_expected:
            respond(None)
            return True

        def relay(fut):
            respond(_reply_from_future(request, fut))

        future.add_done_callback(relay)
        return True

    def _tier_operation_id(self, request):
        """A deterministic operation id for a tier-forwarded request.

        Every gateway replica of the tier derives the same identifier
        from (requesting node, GIOP request id), so a client retry that
        lands on a different gateway is suppressed as a duplicate.  Falls
        back to the engine's allocator when the transport cannot name the
        peer (assumes one client ORB per external node).
        """
        peer = request.service_context.get("x-peer-node")
        if peer is None:
            return None
        return ("g", self.tier.group, peer, request.request_id)


class GatewayTier:
    """A replicated tier of gateways sharing one client group.

    All member gateways join the tier's client group ``gw/<name>``, so
    group replies reach every gateway ring-wide and each replica's
    duplicate tables see the tier's operations.  :meth:`export` returns a
    multi-profile IOR (the FT-CORBA IOGR shape) listing every gateway;
    external clients spread load across the tier by the per-export
    profile rotation and fail over to the surviving gateways when the
    one they are connected to dies.
    """

    def __init__(self, name, engines):
        if not engines:
            raise ValueError("a gateway tier needs at least one engine")
        self.name = name
        self.group = "gw/%s" % name
        self.gateways = [Gateway(engine, tier=self) for engine in engines]
        for gateway in self.gateways:
            gateway.engine.join_client_group(self.group)

    def export(self, group_ior, type_id=None):
        """Export a group on every gateway; returns a combined IOR.

        Profile order is rotated deterministically per object key, so
        different exported objects lead clients to different first-choice
        gateways (static load balancing), while every profile remains a
        valid failover target.
        """
        profiles = []
        for gateway in self.gateways:
            ior = gateway.export(group_ior, type_id)
            profiles.extend(ior.iiop_profiles())
        start = zlib.crc32(
            profiles[0].object_key.encode("utf-8")
        ) % len(profiles)
        rotated = profiles[start:] + profiles[:start]
        return IOR(type_id or group_ior.type_id, rotated)

    def __repr__(self):
        return "GatewayTier(%s, %d gateways)" % (self.name, len(self.gateways))


def _decode_args(request):
    from repro.orb.cdr import decode_value

    return decode_value(request.body)


def _reply_from_future(request, future):
    from repro.orb.cdr import encode_value
    from repro.orb.exceptions import ApplicationError, SystemException
    from repro.orb.giop import ReplyStatus

    exc = future.exception()
    if exc is None:
        return ReplyMessage(
            request.request_id, ReplyStatus.NO_EXCEPTION,
            encode_value(future.result()),
        )
    if isinstance(exc, SystemException):
        return ReplyMessage(
            request.request_id, ReplyStatus.SYSTEM_EXCEPTION,
            encode_value((exc.name, exc.detail, exc.minor)),
        )
    if isinstance(exc, ApplicationError):
        return ReplyMessage(
            request.request_id, ReplyStatus.USER_EXCEPTION,
            encode_value((exc.exc_type, exc.detail)),
        )
    return ReplyMessage(
        request.request_id, ReplyStatus.USER_EXCEPTION,
        encode_value((type(exc).__name__, str(exc))),
    )
