"""Unit tests for state capture and transfer mechanisms."""

import pytest

from repro.state import (
    Checkpointable,
    FullStateCapture,
    IncrementalAssembler,
    IncrementalTransfer,
)


def test_checkpointable_contract_enforced():
    class Incomplete(Checkpointable):
        pass

    with pytest.raises(NotImplementedError):
        Incomplete().get_state()
    with pytest.raises(NotImplementedError):
        Incomplete().set_state(None)


def test_incremental_transfer_chunks_cover_snapshot():
    state = {"key-%d" % i: "v" * 50 for i in range(100)}
    transfer = IncrementalTransfer(state, chunk_size=512)
    assembler = IncrementalAssembler()
    count = 0
    for index, total, chunk in transfer.chunks():
        assert total == transfer.chunk_count()
        assembler.add_chunk(index, total, chunk)
        count += 1
    assert count == transfer.chunk_count() > 1
    assert assembler.complete()
    assert assembler.assemble() == state
    assert transfer.stats.chunk_bytes == len(transfer.snapshot)


def test_incremental_assembler_rejects_missing_chunks():
    transfer = IncrementalTransfer({"a": 1}, chunk_size=4)
    assembler = IncrementalAssembler()
    chunks = list(transfer.chunks())
    assembler.add_chunk(*chunks[0])
    assert not assembler.complete()
    with pytest.raises(ValueError):
        assembler.assemble()


def test_incremental_transfer_rejects_a_nonpositive_chunk_size():
    with pytest.raises(ValueError):
        IncrementalTransfer({}, chunk_size=0)


def test_full_state_capture_round_trip():
    capture = FullStateCapture(7, {"pending": 2}, {"dup_entries": 5},
                               position=12)
    restored = FullStateCapture.from_value(capture.as_value())
    assert restored.application == 7
    assert restored.position == 12
    assert restored.orb == {"pending": 2}
    assert restored.infrastructure == {"dup_entries": 5}
    assert capture.size_bytes() > 0


def test_transfer_stats_accounting():
    transfer = IncrementalTransfer({"k": "v" * 1000}, chunk_size=256)
    list(transfer.chunks())
    stats = transfer.stats
    assert stats.chunks == transfer.chunk_count()
    assert stats.total_bytes == stats.chunk_bytes == len(transfer.snapshot)
