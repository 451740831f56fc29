"""repro.wire -- the one binary message layer under every protocol.

All inter-node traffic (Totem tokens and regular messages, membership
protocol, TCP-like transport segments carrying GIOP, state transfer)
is encoded into versioned frames by this package before it is handed to
:mod:`repro.simnet`, so the simulated byte counts are the actual encoded
sizes and a future real-socket backend only has to move the bytes.
"""

from repro.wire.codec import (
    KIND_STATE_CHUNK,
    KIND_TCP_ACK,
    KIND_TCP_DATA,
    KIND_TCP_FIN,
    KIND_TCP_SYN,
    KIND_TCP_SYN_ACK,
    KIND_TOTEM_BEACON,
    KIND_TOTEM_COMMIT,
    KIND_TOTEM_DATA,
    KIND_TOTEM_HOLD_CANCEL,
    KIND_TOTEM_JOIN,
    KIND_TOTEM_RECOVERY_DONE,
    KIND_TOTEM_RECOVERY_REQUEST,
    KIND_TOTEM_TOKEN,
    decode_one,
    decode_payload,
    encode,
    encode_body,
    kind_of,
    register,
    registered_kinds,
)
from repro.wire.framing import (
    HEADER_BYTES,
    KIND_BATCH,
    MAGIC,
    MAX_RING,
    VERSION,
    Frame,
    WireFormatError,
    decode_frame,
    encode_batch,
    encode_frame,
    iter_frames,
    peek_ring,
)

__all__ = [
    "Frame",
    "HEADER_BYTES",
    "KIND_BATCH",
    "MAGIC",
    "MAX_RING",
    "VERSION",
    "WireFormatError",
    "decode_frame",
    "peek_ring",
    "decode_one",
    "decode_payload",
    "encode",
    "encode_batch",
    "encode_body",
    "encode_frame",
    "iter_frames",
    "kind_of",
    "register",
    "registered_kinds",
    "KIND_TOTEM_DATA",
    "KIND_TOTEM_TOKEN",
    "KIND_TOTEM_BEACON",
    "KIND_TOTEM_HOLD_CANCEL",
    "KIND_TOTEM_JOIN",
    "KIND_TOTEM_COMMIT",
    "KIND_TOTEM_RECOVERY_REQUEST",
    "KIND_TOTEM_RECOVERY_DONE",
    "KIND_TCP_SYN",
    "KIND_TCP_SYN_ACK",
    "KIND_TCP_DATA",
    "KIND_TCP_ACK",
    "KIND_TCP_FIN",
    "KIND_STATE_CHUNK",
]
