"""State capture and transfer mechanisms.

One of the paper's central lessons is that making an object fault-tolerant
requires capturing *three* kinds of state -- application state, ORB state,
and infrastructure (replication-mechanism) state -- and supporting both a
simple blocking state transfer and a non-blocking incremental transfer
for objects with large states.
"""

from repro.state.checkpointable import Checkpointable
from repro.state.transfer import (
    IncrementalAssembler,
    IncrementalTransfer,
    TransferStats,
)
from repro.state.three_tier import FullStateCapture

__all__ = [
    "Checkpointable",
    "IncrementalAssembler",
    "IncrementalTransfer",
    "TransferStats",
    "FullStateCapture",
]
