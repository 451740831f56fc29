"""The local read path: declared reads served without a token round.

Every mutating invocation pays a full Totem ordering round.  Operations
declared ``READ_ONLY`` in the interface (see :mod:`repro.orb.idl`) can
instead be served directly at one replica -- the classic read-scaling
half of the replication pattern.  Two consistency modes:

- ``LINEARIZABLE``: served only by the group's primary while it holds an
  unexpired read lease from every backup (:mod:`repro.replication.leases`)
  and only for styles where the leader's state reflects every acked write
  (``ReplicationStyle.leader_serves_reads``).  Never served during a
  merge stall or after lease expiry.
- ``BOUNDED_STALE``: served by any ready replica (typically a
  warm-passive backup) whose ``ops_applied`` lags the primary's last
  piggybacked position by at most ``max_lag`` operations.  The position
  beacon rides the lease renewals, so the lag figure itself is at most
  one lease window old; a backup with no sufficiently fresh beacon
  refuses.

A refused or unreachable local read falls back to the ordered path --
correctness never depends on the fast path.  Reads execute on the
replica's deterministic dispatcher (serialized after in-flight writes)
but never touch ``ops_applied``, the duplicate tables, or the operation
log: a read leaves no replicated trace, which is the whole point.

Routing ("nearest / least-loaded"): linearizable reads can only go to
the primary; bounded-stale reads prefer a replica hosted on this very
node (zero network hops), then the member with the fewest reads in
flight from this router, with the smallest node id as the deterministic
tie-break.
"""

import inspect

from repro.orb.exceptions import ApplicationError, SystemException
from repro.orb.idl import Servant, interface_of, operation
from repro.orb.ior import IIOPProfile, IOR
from repro.orb.orb_core import Future
from repro.replication.election import choose_primary
from repro.replication.styles import ReplicationStyle

READ_REJECTED = "ReadRejected"


class ReadConsistency:
    """Consistency modes for declared-read invocations."""

    ORDERED = "ordered"            # full token round (the default path)
    LINEARIZABLE = "linearizable"  # leased leader-local read
    BOUNDED_STALE = "bounded_stale"  # any replica within the lag bound

    ALL = (ORDERED, LINEARIZABLE, BOUNDED_STALE)


class ReadOptions:
    """Per-stub (or per-invocation) read routing preferences.

    Args:
        mode: a :class:`ReadConsistency` value.
        max_lag: for BOUNDED_STALE, the most operations a serving replica
            may lag the primary's last position beacon.
        timeout: reply deadline for one local-read attempt; on expiry the
            client falls back to the ordered path (reads are idempotent,
            so the retry is safe).  None uses the ORB default.
    """

    __slots__ = ("mode", "max_lag", "timeout")

    def __init__(self, mode=ReadConsistency.LINEARIZABLE, max_lag=0,
                 timeout=None):
        if mode not in ReadConsistency.ALL:
            raise ValueError("unknown read consistency mode %r" % (mode,))
        self.mode = mode
        self.max_lag = max_lag
        self.timeout = timeout

    def as_context(self):
        """Service-context entry stamped on annotated read requests."""
        return {"mode": self.mode, "max_lag": self.max_lag,
                "timeout": self.timeout}

    @classmethod
    def from_context(cls, entry):
        return cls(mode=entry.get("mode", ReadConsistency.ORDERED),
                   max_lag=entry.get("max_lag", 0),
                   timeout=entry.get("timeout"))

    def __repr__(self):
        return "ReadOptions(%s, max_lag=%d)" % (self.mode, self.max_lag)


def read_port_ior(node_id, port):
    """Plain-IIOP reference to a node's local read port."""
    return IOR("IDL:LocalReadPort:1.0",
               [IIOPProfile(node_id, port, LocalReadPort.OBJECT_KEY)])


def _rejected(reason):
    return ApplicationError(READ_REJECTED, reason)


class LocalReadPort(Servant):
    """Per-node servant serving declared reads over plain IIOP."""

    OBJECT_KEY = "ft/reads"

    def __init__(self, engine):
        self.engine = engine

    @operation(read_only=True)
    def read_local(self, group, op, args, mode, max_lag):
        return self.engine.reads.serve(group, op, tuple(args), mode, max_lag)


class LocalReadTask:
    """Dispatcher task executing one local read at one replica.

    Rides the replica's deterministic dispatcher so the read serializes
    after any in-flight write execution, but completes no operation id
    and bumps no counters.
    """

    __slots__ = ("replica", "op", "args", "future", "cost")

    def __init__(self, replica, op, args, future):
        self.replica = replica
        self.op = op
        self.args = args
        self.future = future
        self.cost = getattr(replica.servant, "simulated_cost", 0.0) or 0.0

    def run(self, done):
        try:
            result = getattr(self.replica.servant, self.op)(*self.args)
        except Exception as exc:
            if not isinstance(exc, (ApplicationError, SystemException)):
                exc = ApplicationError(type(exc).__name__, str(exc))
            self.future.set_exception(exc)
        else:
            self.future.set_result(result)
        done()


class ReadCoordinator:
    """Per-engine read routing and local serving."""

    def __init__(self, engine):
        self.engine = engine
        self.ep = engine.ep
        self._telemetry = self.ep.telemetry
        self._inflight = {}   # target node -> reads currently outstanding
        self.served = 0
        self.fallbacks = 0

    # ------------------------------------------------------------------
    # Server side: eligibility checks + dispatcher execution
    # ------------------------------------------------------------------

    def serve(self, group, op, args, mode, max_lag):
        """Serve one declared read at this node, or raise ReadRejected."""
        engine = self.engine
        replica = engine.replicas.get(group)

        def reject(reason):
            self.ep.emit("read.reject", {"group": group,
                                         "node": engine.node_id,
                                         "mode": mode, "reason": reason})
            raise _rejected(reason)

        if replica is None:
            reject("no-replica")
        if not replica.ready:
            reject("not-ready")
        if replica.merge is not None and replica.merge.stalled:
            reject("merge-stall")
        info = interface_of(replica.servant).operations.get(op)
        if info is None or not info.read_only:
            # The client's claim is not trusted: only operations the
            # *interface* declares read-only ever bypass ordering.
            reject("not-read-only")
        method = getattr(replica.servant, op, None)
        if method is None or inspect.isgeneratorfunction(method):
            # Reads with nested invocations would need the full execution
            # machinery; they stay on the ordered path.
            reject("nested")

        lag = 0
        if mode == ReadConsistency.LINEARIZABLE:
            if not ReplicationStyle.leader_serves_reads(replica.policy.style):
                reject("style")
            if not replica.is_primary:
                reject("not-primary")
            if not engine.leases.holds(group):
                reject("no-lease")
        elif mode == ReadConsistency.BOUNDED_STALE:
            if not replica.is_primary:
                lag = self._staleness(replica, reject)
                if lag > max_lag:
                    reject("stale")
        else:
            reject("mode")

        future = Future()
        replica.dispatcher.submit(LocalReadTask(replica, op, args, future))
        self.served += 1
        self.ep.emit("read.local", {"group": group, "node": engine.node_id,
                                    "mode": mode, "lag": lag})
        return future

    def _staleness(self, replica, reject):
        """How far this backup lags the primary's last position beacon."""
        beacon = self.engine.leases.primary_position(replica.group)
        if beacon is None:
            reject("no-position")
        position, received_at = beacon
        if self.ep.now - received_at > replica.policy.read_lease_duration:
            # The beacon itself has gone stale (primary silent or dead);
            # the lag figure below it would be meaningless.
            reject("position-expired")
        return max(position - replica.ops_applied, 0)

    # ------------------------------------------------------------------
    # Client side: routing, the remote hop, and the ordered fallback
    # ------------------------------------------------------------------

    def wants_local(self, read_context):
        mode = (read_context or {}).get("mode")
        return mode in (ReadConsistency.LINEARIZABLE,
                        ReadConsistency.BOUNDED_STALE)

    def send_read(self, ior, request, future):
        """GroupRouter divert: an annotated read leaving this node's ORB.

        Attempts the local path; any rejection, timeout, or transport
        error falls back to the ordered multicast with the same request
        (reads are idempotent by declaration, so the ambiguous-failure
        retry is safe).
        """
        from repro.orb.cdr import decode_value

        opts = request.service_context.pop("read", None) or {}
        group = ior.group_profile().group_name
        args = decode_value(request.body)
        started = self.ep.now

        def ordered(reason):
            self.fallbacks += 1
            self.ep.emit("read.fallback", {"group": group,
                                           "op": request.operation,
                                           "reason": reason})
            self.engine.send_group_request(ior, request, future)

        attempt = self.attempt(group, request.operation, args, opts)

        def complete(fut):
            exc = fut.exception()
            if exc is not None and self._falls_back(exc):
                ordered(self._reason(exc))
                return
            self.engine.orb.forget_pending(request.request_id)
            if exc is not None:
                future.set_exception(exc)
                return
            self._telemetry.metrics.histogram("read.latency.local").record(
                self.ep.now - started)
            future.set_result(fut.result())

        attempt.add_done_callback(complete)

    def invoke_with_fallback(self, group, op, args, read_context, ordered):
        """Gateway-side entry: local attempt, else ``ordered()`` future.

        ``ordered`` is a callable issuing the ordered group invocation and
        returning its future; it is only called on fallback.
        """
        future = Future()
        attempt = self.attempt(group, op, tuple(args), read_context or {})

        def complete(fut):
            exc = fut.exception()
            if exc is not None and self._falls_back(exc):
                self.fallbacks += 1
                self.ep.emit("read.fallback", {"group": group, "op": op,
                                               "reason": self._reason(exc)})
                _chain(ordered(), future)
                return
            if exc is not None:
                future.set_exception(exc)
            else:
                future.set_result(fut.result())

        attempt.add_done_callback(complete)
        return future

    def attempt(self, group, op, args, read_context):
        """One local-read attempt against the chosen replica.

        Returns a future failing with ReadRejected / transport errors; no
        fallback of its own.
        """
        mode = read_context.get("mode", ReadConsistency.ORDERED)
        max_lag = read_context.get("max_lag", 0)
        timeout = read_context.get("timeout")
        engine = self.engine
        target = self._pick_target(group, mode)
        if target is None:
            future = Future()
            future.set_exception(_rejected("no-target"))
            return future
        self.ep.emit("read.route", {"group": group, "node": engine.node_id,
                                    "target": target, "mode": mode})
        self._inflight[target] = self._inflight.get(target, 0) + 1
        if target == engine.node_id and group in engine.replicas:
            try:
                inner = self.serve(group, op, args, mode, max_lag)
            except (ApplicationError, SystemException) as exc:
                inner = Future()
                inner.set_exception(exc)
        else:
            inner = engine.orb.invoke(
                read_port_ior(target, engine.orb.port), "read_local",
                (group, op, list(args), mode, max_lag), timeout=timeout,
            )
        inner.add_done_callback(
            lambda _f: self._inflight.__setitem__(
                target, self._inflight.get(target, 1) - 1))
        return inner

    def _pick_target(self, group, mode):
        """Nearest / least-loaded eligible member, or None."""
        engine = self.engine
        if not engine.participates_in(group):
            return None
        members = engine._member_for(group).members_of(group)
        if not members:
            return None
        if mode == ReadConsistency.LINEARIZABLE:
            return choose_primary(members)
        if engine.node_id in members and group in engine.replicas:
            return engine.node_id
        return min(members, key=lambda n: (self._inflight.get(n, 0), n))

    @staticmethod
    def _falls_back(exc):
        # Servant-raised application errors are real results and
        # propagate; everything else (rejection, timeout, transport)
        # retries on the ordered path.
        if isinstance(exc, ApplicationError):
            return exc.exc_type == READ_REJECTED
        return isinstance(exc, SystemException)

    @staticmethod
    def _reason(exc):
        if isinstance(exc, ApplicationError):
            return str(exc.detail)
        return type(exc).__name__

    def stats(self):
        return {"served": self.served, "fallbacks": self.fallbacks,
                "inflight": {k: v for k, v in sorted(self._inflight.items())
                             if v}}


def _chain(source, sink):
    """Propagate one future's outcome into another."""

    def complete(fut):
        exc = fut.exception()
        if exc is not None:
            sink.set_exception(exc)
        else:
            sink.set_result(fut.result())

    source.add_done_callback(complete)
