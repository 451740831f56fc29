"""Message-kind registry and object <-> frame codec.

Every message class that crosses the simulated network registers here
with a unique frame kind.  A registered class provides::

    def encode_wire(self, enc):      # write the body into a CdrEncoder
    @classmethod
    def decode_wire(cls, dec):       # rebuild an instance from a CdrDecoder

and :func:`encode` / :func:`decode_payload` convert between instances
and framed bytes.  The registry is append-only and global: kinds are
part of the wire format, documented in ``docs/PROTOCOL.md``.

Kind space (one octet):

- ``0x01``        batch (framing-level; body is concatenated frames)
- ``0x10--0x1F``  Totem ordering/membership protocol
- ``0x20--0x2F``  TCP-like ORB transport segments (GIOP rides as data)
- ``0x30--0x3F``  state-transfer payloads
"""

import struct

from repro.wire.framing import (
    KIND_BATCH,
    WireFormatError,
    encode_frame,
    iter_frames,
)

# Totem ordering and membership (0x10--0x1F).
KIND_TOTEM_DATA = 0x10
KIND_TOTEM_TOKEN = 0x11
KIND_TOTEM_BEACON = 0x12
KIND_TOTEM_JOIN = 0x13
KIND_TOTEM_COMMIT = 0x14
KIND_TOTEM_RECOVERY_REQUEST = 0x15
KIND_TOTEM_RECOVERY_DONE = 0x16
# 0x17 and 0x18 carried the eager-dissemination frames; the numbers are
# retired, not reused -- a datagram of either kind is an unknown-kind drop.
KIND_TOTEM_HOLD_CANCEL = 0x19

# ORB transport segments (0x20--0x2F).
KIND_TCP_SYN = 0x20
KIND_TCP_SYN_ACK = 0x21
KIND_TCP_DATA = 0x22
KIND_TCP_ACK = 0x23
KIND_TCP_FIN = 0x24

# State transfer (0x30--0x3F).
KIND_STATE_CHUNK = 0x30
# 0x31 carried the logged update image of an incremental transfer; retired
# like 0x17/0x18 -- a datagram of this kind is an unknown-kind drop.

_CODECS = {}      # kind -> (name, cls)
_KIND_OF = {}     # cls -> kind


def register(kind, name):
    """Class decorator binding a message class to a frame kind."""

    def bind(cls):
        if kind in _CODECS:
            raise ValueError(
                "wire kind 0x%02x already bound to %s" % (kind, _CODECS[kind][0]))
        _CODECS[kind] = (name, cls)
        _KIND_OF[cls] = kind
        return cls

    return bind


def registered_kinds():
    """Mapping ``kind -> (name, cls)`` of every registered message kind."""
    return dict(_CODECS)


def kind_of(message):
    """The frame kind registered for ``message``'s class."""
    try:
        return _KIND_OF[type(message)]
    except KeyError:
        raise WireFormatError(
            "no wire kind registered for %s" % type(message).__name__) from None


# Imported this late deliberately: pulling in repro.orb.cdr runs the
# repro.orb package __init__, whose transport module imports this module
# back to register its segment kinds -- everything a registration needs
# (the kind constants and :func:`register`) is already defined above.
from repro.orb.cdr import CdrDecoder, CdrEncoder  # noqa: E402
from repro.orb.exceptions import MarshalError  # noqa: E402

#: Exceptions a body codec may raise on malformed input; all are
#: converted to :class:`WireFormatError` by the decode entry points.
_DECODE_ERRORS = (
    MarshalError, struct.error, ValueError, KeyError, IndexError,
    OverflowError, UnicodeDecodeError, TypeError,
)


def encode_body(message):
    """Encode one registered message object's *body*; returns bytes.

    The encode-once half of :func:`encode`: a multicast payload's body is
    independent of the receiver and of the frame header, so callers that
    reuse an encoding (retransmission caches, Join rebroadcasts, token
    resends) pre-encode the body once and frame it per send -- or cache
    the full :func:`encode` output when the ring id is fixed too.
    """
    enc = CdrEncoder()
    message.encode_wire(enc)
    return enc.getvalue()


def encode(message, ring=0):
    """Encode one registered message object into a framed byte string.

    ``ring`` stamps the frame header's ring id (see
    :mod:`repro.wire.framing`); ringless traffic leaves it at 0.
    """
    return encode_frame(kind_of(message), encode_body(message), ring=ring)


def _decode_body(frame):
    try:
        name, cls = _CODECS[frame.kind]
    except KeyError:
        raise WireFormatError(
            "unknown wire kind 0x%02x" % frame.kind) from None
    dec = CdrDecoder(frame.body)
    try:
        message = cls.decode_wire(dec)
    except WireFormatError:
        raise
    except _DECODE_ERRORS as err:
        raise WireFormatError(
            "malformed %s body: %s" % (name, err)) from err
    if dec.remaining():
        raise WireFormatError(
            "%d trailing bytes after %s body" % (dec.remaining(), name))
    return message


def decode_payload(data):
    """Decode a received buffer into a list of message objects.

    The buffer must tile exactly into frames; a ``KIND_BATCH`` frame is
    flattened one level (batches never nest).
    """
    messages = []
    for frame in iter_frames(data):
        if frame.kind == KIND_BATCH:
            for inner in iter_frames(frame.body):
                if inner.kind == KIND_BATCH:
                    raise WireFormatError("nested batch frame")
                messages.append(_decode_body(inner))
        else:
            messages.append(_decode_body(frame))
    if not messages:
        raise WireFormatError("empty wire payload")
    return messages


def decode_one(data):
    """Decode a buffer expected to hold exactly one (non-batch) message."""
    messages = decode_payload(data)
    if len(messages) != 1:
        raise WireFormatError("expected one message, got %d" % len(messages))
    return messages[0]
