"""Unit tests for state capture and transfer mechanisms."""

import pytest

from repro.state import (
    BlockingTransfer,
    Checkpointable,
    FullStateCapture,
    IncrementalAssembler,
    IncrementalTransfer,
    StateImage,
    capture_full_state,
    restore_full_state,
    state_size_of,
)
from repro.workloads import Counter, KeyValueStore


def test_checkpointable_contract_enforced():
    class Incomplete(Checkpointable):
        pass

    with pytest.raises(NotImplementedError):
        Incomplete().get_state()
    with pytest.raises(NotImplementedError):
        Incomplete().set_state(None)


def test_state_size_of_servant_and_raw_value():
    counter = Counter(41)
    assert state_size_of(counter) == state_size_of(41)
    assert state_size_of("x" * 100) > state_size_of("x")


def test_blocking_transfer_round_trip():
    source = KeyValueStore()
    source.put("k", [1, 2, 3])
    data, size = BlockingTransfer.capture(source)
    assert size == len(data)
    sink = KeyValueStore()
    BlockingTransfer.apply(sink, data)
    assert sink.data == {"k": [1, 2, 3]}


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


def test_incremental_images_patch_torn_state():
    transfer = IncrementalTransfer({"a": 1, "b": 2}, chunk_size=1024)
    transfer.record_update("post", "a", 10)
    transfer.record_update("post", "c", 30)
    images = transfer.drain_images()
    assert transfer.images == []
    assembler = IncrementalAssembler()
    for chunk in transfer.chunks():
        assembler.add_chunk(*chunk)
    state = assembler.apply_images(assembler.assemble(), images)
    assert state == {"a": 10, "b": 2, "c": 30}
    assert assembler.patched_keys == ["a", "c"]


def test_pre_image_with_none_deletes_key():
    assembler = IncrementalAssembler()
    state = {"a": 1}
    image = StateImage("pre", "a", None, 1)
    assert assembler.apply_images(state, [image]) == {}


def test_state_image_validates_kind():
    with pytest.raises(ValueError):
        StateImage("mid", "k", 1, 1)
    with pytest.raises(ValueError):
        IncrementalTransfer({}, chunk_size=0)


def test_full_state_capture_round_trip():
    counter = Counter(7)
    capture = capture_full_state(
        counter, {"pending": 2}, {"dup_entries": 5}, position=12
    )
    value = capture.as_value()
    restored = FullStateCapture.from_value(value)
    assert restored.position == 12
    assert restored.orb == {"pending": 2}
    assert restored.infrastructure == {"dup_entries": 5}
    sink = Counter(0)
    orb_state, infra_state = restore_full_state(sink, restored)
    assert sink.value == 7
    assert orb_state == {"pending": 2}
    assert infra_state == {"dup_entries": 5}
    assert capture.size_bytes() > 0


def test_transfer_stats_accounting():
    transfer = IncrementalTransfer({"k": "v" * 1000}, chunk_size=256)
    list(transfer.chunks())
    transfer.record_update("post", "k2", "x")
    stats = transfer.stats
    assert stats.chunks == transfer.chunk_count()
    assert stats.images == 1
    assert stats.total_bytes == stats.chunk_bytes + stats.image_bytes
