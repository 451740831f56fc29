"""State capture and transfer mechanisms.

One of the paper's central lessons is that making an object fault-tolerant
requires capturing *three* kinds of state -- application state, ORB state,
and infrastructure (replication-mechanism) state -- and supporting both a
simple blocking state transfer and a non-blocking incremental transfer
(logged pre/post-images) for objects with large states.
"""

from repro.state.checkpointable import Checkpointable, state_size_of
from repro.state.transfer import (
    BlockingTransfer,
    IncrementalAssembler,
    IncrementalTransfer,
    StateImage,
    TransferStats,
)
from repro.state.three_tier import FullStateCapture, capture_full_state, restore_full_state

__all__ = [
    "Checkpointable",
    "state_size_of",
    "BlockingTransfer",
    "IncrementalAssembler",
    "IncrementalTransfer",
    "StateImage",
    "TransferStats",
    "FullStateCapture",
    "capture_full_state",
    "restore_full_state",
]
