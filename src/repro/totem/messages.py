"""Wire-level message types of the Totem protocol.

Each class registers a frame kind with :mod:`repro.wire` and carries its
own body codec (``encode_wire`` / ``decode_wire``), so the processor
ships real framed bytes through the simulated network and the simulated
sizes are the actual encoded sizes.  ``DataMessage`` bodies are padded
up to the sender's declared application payload size, keeping benchmark
size sweeps honest even though the toy payloads are tiny tuples.
"""

from repro.wire.codec import (
    KIND_TOTEM_BEACON,
    KIND_TOTEM_COMMIT,
    KIND_TOTEM_DATA,
    KIND_TOTEM_HOLD_CANCEL,
    KIND_TOTEM_JOIN,
    KIND_TOTEM_RECOVERY_DONE,
    KIND_TOTEM_RECOVERY_REQUEST,
    KIND_TOTEM_TOKEN,
    register,
)

_GUARANTEE_CODE = {"agreed": 0, "safe": 1}
_GUARANTEE_NAME = {0: "agreed", 1: "safe"}


def _slots_eq(self, other):
    """Structural equality over ``__slots__`` (wire round-trip testing)."""
    if type(other) is not type(self):
        return NotImplemented
    return all(
        getattr(self, slot) == getattr(other, slot)
        for slot in type(self).__slots__
    )


class RingId:
    """Identity of one ring configuration: a sequence number plus members.

    Ring sequence numbers increase monotonically across configuration
    changes (by 4 each time, following Totem, so that distinct concurrent
    components never reuse an id: each component adds the number of members
    it lost, which keeps ids unique without coordination -- we keep the +4
    convention and additionally break ties with the representative id).
    """

    __slots__ = ("seq", "members", "representative")

    def __init__(self, seq, members):
        self.seq = seq
        self.members = tuple(sorted(members))
        self.representative = self.members[0] if self.members else None

    def key(self):
        """Hashable identity used to index per-ring message stores."""
        return (self.seq, self.members)

    def successor_of(self, node_id):
        """The next member after ``node_id`` on the logical ring."""
        index = self.members.index(node_id)
        return self.members[(index + 1) % len(self.members)]

    def encode_wire(self, enc):
        enc.ulong(self.seq).ulong(len(self.members))
        for member in self.members:
            enc.string(member)

    @classmethod
    def decode_wire(cls, dec):
        seq = dec.ulong()
        members = [dec.string() for _ in range(dec.ulong())]
        return cls(seq, members)

    def __eq__(self, other):
        return isinstance(other, RingId) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return "RingId(seq=%d, members=%s)" % (self.seq, list(self.members))


@register(KIND_TOTEM_DATA, "totem-data")
class DataMessage:
    """A regular multicast message sequenced on a ring.

    ``guarantee`` is ``"agreed"`` or ``"safe"``; ``retransmit`` marks copies
    re-broadcast in answer to a retransmission request.  ``span`` is the
    optional telemetry span id of the invocation this message carries
    (None for protocol-internal traffic); it travels on the wire so the
    receiving side stamps its ``delivered`` mark on real decoded bytes.
    On the wire the body is padded to the declared application payload
    ``size``, so the encoded frame length models a real payload of that
    many bytes.
    """

    __slots__ = ("ring", "seq", "sender", "payload", "size", "guarantee",
                 "retransmit", "span")

    def __init__(self, ring, seq, sender, payload, size, guarantee,
                 retransmit=False, span=None):
        self.ring = ring
        self.seq = seq
        self.sender = sender
        self.payload = payload
        self.size = size
        self.guarantee = guarantee
        self.retransmit = retransmit
        self.span = span

    def copy_for_retransmit(self):
        return DataMessage(
            self.ring, self.seq, self.sender, self.payload, self.size,
            self.guarantee, retransmit=True, span=self.span,
        )

    def encode_wire(self, enc):
        self.ring.encode_wire(enc)
        enc.ulong(self.seq).string(self.sender)
        enc.octet(_GUARANTEE_CODE[self.guarantee])
        enc.octet(1 if self.retransmit else 0)
        enc.octet(1 if self.span is not None else 0)
        if self.span is not None:
            enc.string(self.span)
        enc.ulong(self.size)
        body_start = len(enc.getvalue())
        enc.value(self.payload)
        encoded = len(enc.getvalue()) - body_start
        enc.raw(b"\x00" * max(0, self.size - encoded))

    @classmethod
    def decode_wire(cls, dec):
        ring = RingId.decode_wire(dec)
        seq = dec.ulong()
        sender = dec.string()
        guarantee = _GUARANTEE_NAME[dec.octet()]
        retransmit = bool(dec.octet())
        span = dec.string() if dec.octet() else None
        size = dec.ulong()
        before = dec.remaining()
        payload = dec.value()
        encoded = before - dec.remaining()
        dec.skip(max(0, size - encoded))
        return cls(ring, seq, sender, payload, size, guarantee, retransmit,
                   span=span)

    __eq__ = _slots_eq

    def __repr__(self):
        return "DataMessage(ring=%d, seq=%d, from=%s)" % (
            self.ring.seq, self.seq, self.sender,
        )


@register(KIND_TOTEM_TOKEN, "totem-token")
class Token:
    """The circulating token of the single-ring ordering protocol.

    Attributes:
        ring: the ring this token belongs to.
        token_id: hop counter; receivers drop tokens whose id is not greater
            than the last one they handled (duplicate suppression for token
            retransmission).
        seq: highest message sequence number allocated on this ring.
        rtr: retransmission requests -- set of sequence numbers some member
            is missing.
        rotation_min: minimum of members' all-received-up-to values seen so
            far in the current token rotation.
        safe_seq: the rotation_min of the previous complete rotation: every
            member is known to have received all messages up to safe_seq,
            which is the criterion for *safe* delivery.
    """

    __slots__ = ("ring", "token_id", "seq", "rtr", "rotation_min", "safe_seq")

    def __init__(self, ring, token_id=1, seq=0, rtr=None, rotation_min=0, safe_seq=0):
        self.ring = ring
        self.token_id = token_id
        self.seq = seq
        self.rtr = set(rtr) if rtr else set()
        self.rotation_min = rotation_min
        self.safe_seq = safe_seq

    def encode_wire(self, enc):
        self.ring.encode_wire(enc)
        enc.ulong(self.token_id).ulong(self.seq)
        enc.ulong(len(self.rtr))
        for seq in sorted(self.rtr):
            enc.ulong(seq)
        enc.ulong(self.rotation_min).ulong(self.safe_seq)

    @classmethod
    def decode_wire(cls, dec):
        ring = RingId.decode_wire(dec)
        token_id = dec.ulong()
        seq = dec.ulong()
        rtr = {dec.ulong() for _ in range(dec.ulong())}
        rotation_min = dec.ulong()
        safe_seq = dec.ulong()
        return cls(ring, token_id, seq, rtr, rotation_min, safe_seq)

    __eq__ = _slots_eq

    def __repr__(self):
        return "Token(ring=%d, id=%d, seq=%d, safe=%d, rtr=%d)" % (
            self.ring.seq, self.token_id, self.seq, self.safe_seq, len(self.rtr),
        )


@register(KIND_TOTEM_HOLD_CANCEL, "totem-hold-cancel")
class HoldCancel:
    """A member with something to send asks the representative to stop
    holding the idle ring's token.  Carries the ring id and nothing else:
    the datagram's source names the sender, and a cancel for any other
    ring configuration is ignored."""

    __slots__ = ("ring",)

    def __init__(self, ring):
        self.ring = ring

    def encode_wire(self, enc):
        self.ring.encode_wire(enc)

    @classmethod
    def decode_wire(cls, dec):
        return cls(RingId.decode_wire(dec))

    __eq__ = _slots_eq

    def __repr__(self):
        return "HoldCancel(ring=%d)" % self.ring.seq


@register(KIND_TOTEM_BEACON, "totem-beacon")
class RingBeacon:
    """Periodic advertisement of an installed ring by its representative.

    Idle rings exchange only unicast tokens, so without a multicast signal
    two remerged components would never notice each other.  The beacon is
    the merge-detection signal: receiving one from a ring we do not belong
    to triggers the membership protocol.
    """

    __slots__ = ("ring", "sender")

    def __init__(self, ring, sender):
        self.ring = ring
        self.sender = sender

    def encode_wire(self, enc):
        self.ring.encode_wire(enc)
        enc.string(self.sender)

    @classmethod
    def decode_wire(cls, dec):
        return cls(RingId.decode_wire(dec), dec.string())

    __eq__ = _slots_eq

    def __repr__(self):
        return "RingBeacon(ring=%d, from=%s)" % (self.ring.seq, self.sender)


@register(KIND_TOTEM_JOIN, "totem-join")
class JoinMessage:
    """Membership proposal broadcast while forming a new ring.

    ``proc_set`` is the set of processors the sender believes operational;
    ``fail_set`` the set it has given up on; ``max_ring_seq`` the highest
    ring sequence number the sender has ever been part of (used to pick a
    fresh ring id for the new configuration).
    """

    __slots__ = ("sender", "proc_set", "fail_set", "max_ring_seq")

    def __init__(self, sender, proc_set, fail_set, max_ring_seq):
        self.sender = sender
        self.proc_set = frozenset(proc_set)
        self.fail_set = frozenset(fail_set)
        self.max_ring_seq = max_ring_seq

    def encode_wire(self, enc):
        enc.string(self.sender)
        enc.value(self.proc_set)
        enc.value(self.fail_set)
        enc.ulong(self.max_ring_seq)

    @classmethod
    def decode_wire(cls, dec):
        return cls(dec.string(), dec.value(), dec.value(), dec.ulong())

    __eq__ = _slots_eq

    def __repr__(self):
        return "Join(from=%s, procs=%s, fail=%s)" % (
            self.sender, sorted(self.proc_set), sorted(self.fail_set),
        )


class MemberInfo:
    """Per-member record carried on the Commit token.

    Describes what the member holds from its previous ring so that every
    member can compute, deterministically, the union of recoverable
    messages and who is responsible for re-broadcasting each one.
    (Not a top-level frame: it is encoded inline in the Commit token.)
    """

    __slots__ = ("member", "old_ring_key", "aru", "high_seq", "have")

    def __init__(self, member, old_ring_key, aru, high_seq, have):
        self.member = member
        self.old_ring_key = old_ring_key
        self.aru = aru
        self.high_seq = high_seq
        self.have = tuple(sorted(have))

    def encode_wire(self, enc):
        enc.string(self.member)
        enc.value(self.old_ring_key)
        enc.ulong(self.aru).ulong(self.high_seq)
        enc.value(self.have)

    @classmethod
    def decode_wire(cls, dec):
        return cls(dec.string(), dec.value(), dec.ulong(), dec.ulong(), dec.value())

    __eq__ = _slots_eq

    def __repr__(self):
        return "MemberInfo(%s, old=%s, aru=%d, high=%d)" % (
            self.member, self.old_ring_key, self.aru, self.high_seq,
        )


@register(KIND_TOTEM_COMMIT, "totem-commit")
class CommitToken:
    """Two-rotation commit token installing a new ring.

    Rotation 1 collects a :class:`MemberInfo` from every member; rotation 2
    (``complete=True``) distributes the collected set, moving each member
    into the recovery phase.
    """

    __slots__ = ("ring", "infos", "complete", "hop")

    def __init__(self, ring, infos=None, complete=False, hop=0):
        self.ring = ring
        self.infos = dict(infos) if infos else {}
        self.complete = complete
        self.hop = hop

    def encode_wire(self, enc):
        self.ring.encode_wire(enc)
        enc.ulong(len(self.infos))
        for member in sorted(self.infos):
            self.infos[member].encode_wire(enc)
        enc.octet(1 if self.complete else 0)
        enc.ulong(self.hop)

    @classmethod
    def decode_wire(cls, dec):
        ring = RingId.decode_wire(dec)
        infos = {}
        for _ in range(dec.ulong()):
            info = MemberInfo.decode_wire(dec)
            infos[info.member] = info
        complete = bool(dec.octet())
        hop = dec.ulong()
        return cls(ring, infos, complete, hop)

    __eq__ = _slots_eq

    def __repr__(self):
        return "CommitToken(ring=%d, infos=%d, complete=%s)" % (
            self.ring.seq, len(self.infos), self.complete,
        )


@register(KIND_TOTEM_RECOVERY_REQUEST, "totem-recovery-request")
class RecoveryRequest:
    """Request to re-broadcast specific old-ring messages during recovery."""

    __slots__ = ("ring_key", "seqs", "sender")

    def __init__(self, ring_key, seqs, sender):
        self.ring_key = ring_key
        self.seqs = tuple(sorted(seqs))
        self.sender = sender

    def encode_wire(self, enc):
        enc.value(self.ring_key)
        enc.value(self.seqs)
        enc.string(self.sender)

    @classmethod
    def decode_wire(cls, dec):
        return cls(dec.value(), dec.value(), dec.string())

    __eq__ = _slots_eq

    def __repr__(self):
        return "RecoveryRequest(ring=%s, seqs=%s)" % (self.ring_key, list(self.seqs))


@register(KIND_TOTEM_RECOVERY_DONE, "totem-recovery-done")
class RecoveryDone:
    """Announcement that a member finished recovering old-ring messages."""

    __slots__ = ("new_ring_key", "sender")

    def __init__(self, new_ring_key, sender):
        self.new_ring_key = new_ring_key
        self.sender = sender

    def encode_wire(self, enc):
        enc.value(self.new_ring_key)
        enc.string(self.sender)

    @classmethod
    def decode_wire(cls, dec):
        return cls(dec.value(), dec.string())

    __eq__ = _slots_eq

    def __repr__(self):
        return "RecoveryDone(ring=%s, from=%s)" % (self.new_ring_key, self.sender)
