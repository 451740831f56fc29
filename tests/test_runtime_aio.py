"""Unit tests for the asyncio runtime's datagram framing.

Framing is testable without sockets or protocol stacks; ring formation
and ordering over real sockets live in ``tests/test_runtime_parity.py``.
"""

import pytest

from repro.runtime.aio import _frame_datagram, _unframe_datagram


# ---------------------------------------------------------------- framing

def test_frame_datagram_round_trips_every_payload_type():
    for payload in (b"abc", bytearray(b"abc"), memoryview(b"abc"), b""):
        datagram = _frame_datagram("totem", payload)
        port, body = _unframe_datagram(datagram)
        assert port == "totem" and bytes(body) == bytes(payload)
        assert isinstance(datagram, bytes)


def test_frame_datagram_prefix_matches_manual_encoding():
    name = "orb-reply"
    datagram = _frame_datagram(name, b"xyz")
    expected = bytes([len(name)]) + name.encode("ascii") + b"xyz"
    assert datagram == expected
    # A second call exercises the cached-prefix branch identically.
    assert _frame_datagram(name, b"xyz") == expected


def test_frame_datagram_rejects_bad_inputs():
    with pytest.raises(ValueError):
        _frame_datagram("p" * 256, b"")
    with pytest.raises(TypeError):
        _frame_datagram("totem", "not-bytes")
    with pytest.raises(TypeError):
        _frame_datagram("totem", ("tuple",))


# --------------------------------------------------------- receive buffer

def test_receive_buffer_is_datagram_sized_and_carries_the_largest_datagram():
    """asyncio allocates ``max_size`` bytes per recvfrom; ours is one UDP
    datagram (not the 256 KiB default, which thrashes the heap top once
    the loop stops idling) and still receives the largest one whole."""
    from repro.runtime.aio import MAX_DATAGRAM, AsyncioRuntime

    runtime = AsyncioRuntime(seed=0)
    try:
        a, b = runtime.add_node("a"), runtime.add_node("b")
        assert a._transport.max_size == b._transport.max_size == MAX_DATAGRAM
        received = []
        b.bind("p", lambda src, payload, size: received.append(bytes(payload)))
        largest = bytes(65507 - len(_frame_datagram("p", b"")))
        a.send("b", "p", largest)
        runtime.run_for(0.05)
        assert received == [largest]
    finally:
        runtime.close()
