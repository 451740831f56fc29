"""The operation table: duplicate suppression in constant space.

One table per hosted object group answers the two questions the
mechanisms ask on every delivery: has this operation already been
executed here (then do not execute again; re-send the cached reply if one
exists -- the paper's new-primary reinvocation case), and has a peer's
copy of the reply I am about to send already been delivered (then
suppress mine).

Everything known about one operation is one :class:`OperationRecord` in
the **live** tier until two pieces of evidence have arrived: the invoker
*acknowledged* the reply (its cached bytes will never be re-sent) and the
request became *stable* (every host whose history could differ holds it,
so its bytes will never be needed for a fulfillment replay).  Then only
its identity is kept, in the **retired** tier: per client group an
interval set over the sequence numbers of ``("c", group, n)`` ids -- one
range in the common case -- and exact storage for every other id shape.
Both tiers answer ``status``, so a late duplicate of a retired operation
is still suppressed: exactly-once does not depend on retention.

The table is the *infrastructure state* tier of a capture (live records
without request bytes plus the retired tier), so a capture's size follows
outstanding work and client count, not uptime.
"""

from bisect import bisect_left, bisect_right
from collections import deque

EXECUTING = "executing"
COMPLETED = "completed"


class IntervalSet:
    """A set of integers stored as sorted, disjoint, non-adjacent ranges."""

    __slots__ = ("_los", "_his")

    def __init__(self, flat=()):
        self._los = list(flat[0::2])
        self._his = list(flat[1::2])

    def __contains__(self, number):
        index = bisect_right(self._los, number) - 1
        return index >= 0 and number <= self._his[index]

    def add(self, number):
        his = self._his
        if his and his[-1] + 1 == number:
            his[-1] = number  # the dense case: extend the last range
        else:
            self.add_range(number, number)

    def add_range(self, lo, hi):
        """Add every integer in ``lo..hi`` (inclusive; empty if lo > hi)."""
        if lo > hi:
            return
        los, his = self._los, self._his
        first = bisect_left(his, lo - 1)    # ranges ending at lo-1 or later
        last = bisect_right(los, hi + 1)    # ranges starting at hi+1 or before
        if first < last:
            lo = min(lo, los[first])
            hi = max(hi, his[last - 1])
        los[first:last] = [lo]
        his[first:last] = [hi]

    def ranges(self):
        return list(zip(self._los, self._his))

    def as_value(self):
        """Flat ``[lo, hi, lo, hi, ...]`` (the capture encoding)."""
        return [bound for pair in zip(self._los, self._his) for bound in pair]


def _sequenced(operation_id):
    """True for ``("c", group, n)``: the id shape that compresses."""
    return (len(operation_id) == 3 and operation_id[0] == "c"
            and type(operation_id[2]) is int
            and isinstance(operation_id[1], str))


class RetiredOperations:
    """Identities of completed operations whose payloads were released.

    Lossless: membership is exact.  ``("c", group, n)`` ids fold into a
    per-group :class:`IntervalSet`; nested, fulfillment and gateway ids
    are kept verbatim (insertion-ordered, so captures are deterministic).
    """

    __slots__ = ("ranges", "exact")

    def __init__(self):
        self.ranges = {}   # client group -> IntervalSet of sequence numbers
        self.exact = {}    # op id -> None (an insertion-ordered set)

    def add(self, operation_id):
        if _sequenced(operation_id):
            self.ranges.setdefault(operation_id[1], IntervalSet()).add(
                operation_id[2])
        else:
            self.exact[operation_id] = None

    def add_range(self, group, lo, hi):
        if lo <= hi:
            self.ranges.setdefault(group, IntervalSet()).add_range(lo, hi)

    def __contains__(self, operation_id):
        if _sequenced(operation_id):
            ranges = self.ranges.get(operation_id[1])
            return ranges is not None and operation_id[2] in ranges
        return operation_id in self.exact

    def as_value(self):
        return {
            "ranges": [[group, ranges.as_value()]
                       for group, ranges in self.ranges.items()],
            "exact": list(self.exact),
        }

    @classmethod
    def from_value(cls, value):
        retired = cls()
        for group, flat in value["ranges"]:
            retired.ranges[group] = IntervalSet(flat)
        for op in value["exact"]:
            retired.exact[op] = None
        return retired


class OperationRecord:
    """Everything one replica knows about one live operation.

    Doubles as the delivered-but-not-completed request an
    :class:`~repro.replication.replica.ExecutionTask` runs.
    """

    __slots__ = ("operation_id", "status", "request_bytes", "client_group",
                 "fulfillment", "order_key", "reply_bytes", "reply_seen",
                 "acked", "running")

    def __init__(self, operation_id, status, request_bytes=None,
                 client_group=None, fulfillment=False, order_key=None):
        self.operation_id = operation_id
        self.status = status
        self.request_bytes = request_bytes
        self.client_group = client_group
        self.fulfillment = fulfillment
        self.order_key = order_key
        self.reply_bytes = None
        self.reply_seen = False
        # Nobody waits for the reply of a fulfillment re-execution.
        self.acked = bool(operation_id) and operation_id[0] == "f"
        self.running = False   # a dispatcher task for it has started here


class OperationTable:
    """Suppression state for one object group at one node.

    ``on_count`` is an optional ``callback(category)`` invoked once per
    suppression; the hosting replica wires it to the runtime trace so
    suppression counts land in the shared
    :class:`~repro.simnet.trace.TraceLog` (categories
    ``ft.suppress.request`` / ``ft.suppress.reply``) alongside every
    other message statistic.  The integer counters remain as local
    per-table tallies.
    """

    def __init__(self, on_count=None):
        # op id -> OperationRecord, in delivery order.
        self.live = {}
        # Completed records still holding request bytes, in completion
        # order: the fulfillment journal, pruned from the head.
        self.journal = deque()
        self.retired = RetiredOperations()
        # counters reported by benchmarks
        self.suppressed_requests = 0
        self.suppressed_replies = 0
        self.on_count = on_count or (lambda category: None)

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------

    def status(self, operation_id):
        """``"executing"``, ``"completed"`` or None (never delivered here)."""
        record = self.live.get(operation_id)
        if record is not None:
            return record.status
        return COMPLETED if operation_id in self.retired else None

    def note_executing(self, operation_id, request_bytes=None,
                       client_group=None, fulfillment=False, order_key=None):
        """Record a delivered request; returns its (possibly existing) record."""
        record = self.live.get(operation_id)
        if record is None:
            record = self.live[operation_id] = OperationRecord(
                operation_id, EXECUTING, request_bytes, client_group,
                fulfillment, order_key)
        return record

    def note_completed(self, operation_id, reply_bytes=None,
                       request_bytes=None, client_group=None, order_key=None):
        """Mark an operation completed; the first completion wins.

        ``request_bytes``/``client_group``/``order_key`` describe an
        operation whose request was never noted here (a fulfillment's
        paired original: ``order_key`` is the fulfillment's, the delivery
        that has to become stable before the bytes may go)."""
        record = self.live.get(operation_id)
        if record is None:
            if operation_id in self.retired:
                return
            record = OperationRecord(operation_id, EXECUTING, request_bytes,
                                     client_group, order_key=order_key)
        elif record.status == COMPLETED:
            return
        else:
            del self.live[operation_id]
        # (Re-)inserted at the tail: completed records sit in completion
        # order, the order a capture lists them and a replay follows.
        self.live[operation_id] = record
        record.status = COMPLETED
        record.running = False
        if reply_bytes is not None and not record.acked:
            record.reply_bytes = bytes(reply_bytes)
        if record.request_bytes is None:
            # Nothing to replay from (completed via a state update whose
            # request was never delivered here): nothing to keep stable.
            self._maybe_retire(record)
        else:
            self.journal.append(record)

    def cached_reply(self, operation_id):
        record = self.live.get(operation_id)
        return record.reply_bytes if record is not None else None

    def pending_in_order(self):
        """Uncompleted requests in delivery order (failover work list)."""
        return [r for r in self.live.values() if r.status == EXECUTING]

    def note_suppressed_request(self):
        self.suppressed_requests += 1
        self.on_count("ft.suppress.request")

    # ------------------------------------------------------------------
    # Replies
    # ------------------------------------------------------------------

    def note_reply_seen(self, operation_id):
        record = self.live.get(operation_id)
        if record is not None:
            record.reply_seen = True

    def reply_already_seen(self, operation_id):
        record = self.live.get(operation_id)
        if record is not None:
            return record.reply_seen
        return operation_id in self.retired

    def note_suppressed_reply(self):
        self.suppressed_replies += 1
        self.on_count("ft.suppress.reply")

    # ------------------------------------------------------------------
    # Evidence-based retirement
    # ------------------------------------------------------------------

    def acknowledge(self, operation_id):
        """The invoker stopped waiting: its reply is never re-sent."""
        record = self.live.get(operation_id)
        if record is None or record.acked:
            return
        record.acked = True
        record.reply_bytes = None
        self._maybe_retire(record)

    def release_stable(self, horizon):
        """Release request bytes of journal entries ordered at or before
        ``horizon`` (an order key): every host that could need a
        fulfillment replay of them holds them.  Walks from the head only,
        so the cost follows what is released, not what is kept."""
        journal = self.journal
        while journal and journal[0].order_key <= horizon:
            record = journal.popleft()
            record.request_bytes = None
            self._maybe_retire(record)

    def _maybe_retire(self, record):
        """Acknowledged and stable (no request bytes left to keep)."""
        if (record.acked and record.request_bytes is None
                and record.status == COMPLETED):
            del self.live[record.operation_id]
            self.retired.add(record.operation_id)

    def completed_in_order(self):
        return [(r.operation_id, r.request_bytes, r.client_group)
                for r in self.journal]

    # ------------------------------------------------------------------
    # State transfer (infrastructure tier)
    # ------------------------------------------------------------------

    def capture(self):
        """Marshalable snapshot: completed live records (reply bytes, no
        request bytes -- adopters keep their own) and the retired tier."""
        return {
            "live": [
                [r.operation_id, r.reply_bytes, r.reply_seen, r.acked]
                for r in self.live.values() if r.status == COMPLETED
            ],
            "retired": self.retired.as_value(),
        }

    @classmethod
    def restore(cls, snapshot, on_count=None, previous=None):
        """Rebuild from a capture.  ``previous`` is the adopter's own
        table: request bytes it holds for operations the capture completed
        stay replayable, and its uncompleted requests the capture does not
        cover stay pending, in delivery order."""
        table = cls(on_count)
        table.retired = RetiredOperations.from_value(snapshot["retired"])
        mine = previous.live if previous is not None else {}
        for op, reply_bytes, reply_seen, acked in snapshot["live"]:
            own = mine.get(op)
            record = table.live[op] = OperationRecord(op, COMPLETED)
            if own is not None and own.request_bytes is not None:
                record.request_bytes = own.request_bytes
                record.client_group = own.client_group
                record.order_key = own.order_key
                table.journal.append(record)
            if reply_bytes is not None:
                record.reply_bytes = bytes(reply_bytes)
            record.reply_seen = reply_seen
            record.acked = acked
            table._maybe_retire(record)
        for op, record in mine.items():
            if record.status == EXECUTING and table.status(op) is None:
                record.running = False
                table.live[op] = record
        return table

    @staticmethod
    def completed_in(snapshot):
        """The completed-operation identities a capture describes, as a
        membership structure (``op in result``)."""
        completed = RetiredOperations.from_value(snapshot["retired"])
        for entry in snapshot["live"]:
            completed.add(entry[0])
        return completed

