"""Incremental (chunked) state transfer.

The blocking transfer ships the whole capture in one message while the
sponsor processes nothing (see ``replication/state_sync.py``).  The
incremental transfer lets the sponsor keep processing operations: the
capture is encoded whole when the transfer starts and then cut into
chunks, so the chunked snapshot is never torn and the receiver only
reassembles it; operations ordered after the sponsor's capture reach the
joiner through the ordinary delivery stream.

These classes are mechanism objects: the replication layer feeds them and
ships their messages through the group communication system.  They are
deliberately transport-agnostic so they can be unit-tested standalone.
"""

from repro.orb.cdr import decode_value, encode_value
from repro.wire.codec import KIND_STATE_CHUNK, decode_one, encode, register
from repro.wire.framing import WireFormatError


@register(KIND_STATE_CHUNK, "state-chunk")
class StateChunk:
    """One chunk of a chunked snapshot, as a wire message."""

    __slots__ = ("index", "total", "data")

    def __init__(self, index, total, data):
        self.index = index
        self.total = total
        self.data = data

    def encode_wire(self, enc):
        enc.ulong(self.index).ulong(self.total)
        enc.raw(self.data)

    @classmethod
    def decode_wire(cls, dec):
        return cls(dec.ulong(), dec.ulong(), dec.rest())

    def __repr__(self):
        return "StateChunk(%d/%d, %d bytes)" % (
            self.index, self.total, len(self.data),
        )


class TransferStats:
    """Accounting for one state transfer."""

    def __init__(self):
        self.chunks = 0
        self.chunk_bytes = 0
        self.started_at = None
        self.finished_at = None

    @property
    def total_bytes(self):
        return self.chunk_bytes

    @property
    def duration(self):
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    def record_to(self, metrics, prefix="ft.state.transfer"):
        """Publish this transfer's accounting into a metrics registry.

        Bumps ``<prefix>.count``/``.chunks``, adds the byte volume to the
        ``<prefix>.bytes`` gauge, and records the duration (when both
        timestamps were stamped) in the ``<prefix>.duration`` histogram.
        """
        metrics.counter(prefix + ".count").inc()
        metrics.counter(prefix + ".chunks").inc(self.chunks)
        metrics.gauge(prefix + ".bytes").add(self.total_bytes)
        if self.duration is not None:
            metrics.histogram(prefix + ".duration").record(self.duration)

    def __repr__(self):
        return "TransferStats(chunks=%d, bytes=%d)" % (
            self.chunks, self.total_bytes,
        )


class IncrementalTransfer:
    """Chunked transfer of one encoded capture (source side).

    Usage (source)::

        transfer = IncrementalTransfer(capture_value, chunk_size=4096)
        for frame in transfer.framed_chunks():   # ship each chunk
            ...

    Usage (sink): accumulate chunks into :class:`IncrementalAssembler`,
    then :meth:`~IncrementalAssembler.assemble` the capture.
    """

    def __init__(self, state, chunk_size=4096):
        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        self.snapshot = encode_value(state)
        self.chunk_size = chunk_size
        self.stats = TransferStats()

    def chunk_count(self):
        return (len(self.snapshot) + self.chunk_size - 1) // self.chunk_size or 1

    def chunks(self):
        """Yield (index, total, bytes) chunks of the snapshot."""
        total = self.chunk_count()
        for index in range(total):
            chunk = self.snapshot[index * self.chunk_size:(index + 1) * self.chunk_size]
            self.stats.chunks += 1
            self.stats.chunk_bytes += len(chunk)
            yield index, total, chunk

    def framed_chunks(self):
        """Yield each chunk as an encoded :mod:`repro.wire` frame."""
        for index, total, chunk in self.chunks():
            yield encode(StateChunk(index, total, chunk))


class IncrementalAssembler:
    """Sink side of an incremental transfer: reassemble the capture."""

    def __init__(self):
        self._chunks = {}
        self._total = None

    def add_chunk(self, index, total, data):
        """Store one chunk; returns True when all chunks are present."""
        self._total = total
        self._chunks[index] = bytes(data)
        return self.complete()

    def add_frame(self, data):
        """Decode one framed :class:`StateChunk` and store it."""
        chunk = decode_one(data)
        if not isinstance(chunk, StateChunk):
            raise WireFormatError(
                "expected a state-chunk frame, got %s" % type(chunk).__name__)
        return self.add_chunk(chunk.index, chunk.total, chunk.data)

    def complete(self):
        return self._total is not None and len(self._chunks) == self._total

    def assemble(self):
        """Concatenate chunks and demarshal the snapshot state."""
        if not self.complete():
            raise ValueError("missing chunks: have %d of %s"
                             % (len(self._chunks), self._total))
        data = b"".join(self._chunks[i] for i in range(self._total))
        return decode_value(data)
