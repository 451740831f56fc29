"""Eternal-style replication mechanisms: the paper's primary contribution.

Layers (bottom to top):

- :mod:`identifiers` -- operation/invocation identifiers for duplicate
  suppression across replicated clients and servers, including nested
  operations;
- :mod:`duplicates` -- sender- and receiver-side suppression tables;
- :mod:`styles` -- active, warm/cold passive, and semi-active replication
  policies;
- :mod:`rings` -- deterministic placement of object groups onto the
  domain's shard rings (multi-ring topologies);
- :mod:`replica` -- per-node replica state (logs, tables, dispatcher);
- :mod:`engine` -- the per-node mechanism engine: ORB interception,
  hosting, one delivery table and gate, and a mixin per envelope family:
  :mod:`requests`, :mod:`state_sync`, :mod:`reconciliation`;
- :mod:`manager` -- the FT-CORBA-style ReplicationManager management
  plane (object group creation, membership, degree restoration);
- :mod:`election` -- deterministic primary election from totally ordered
  membership views.
"""

from repro.replication.duplicates import OperationRecord, OperationTable
from repro.replication.election import choose_primary
from repro.replication.engine import GroupRouter, ReplicationEngine
from repro.replication.identifiers import (
    ExecutionContext,
    InvocationId,
    OperationIdAllocator,
    fulfillment_operation_id,
    nested_operation_id,
    top_level_operation_id,
)
from repro.replication.leases import LeaseGrantor, LeaseManager, LeaseRenewer
from repro.replication.manager import ObjectGroupRecord, ReplicationManager
from repro.replication.reads import ReadConsistency, ReadCoordinator, ReadOptions
from repro.replication.replica import LocalReplica
from repro.replication.rings import RingMap
from repro.replication.styles import GroupPolicy, ReplicationStyle

__all__ = [
    "OperationRecord",
    "OperationTable",
    "choose_primary",
    "GroupRouter",
    "ReplicationEngine",
    "ExecutionContext",
    "InvocationId",
    "OperationIdAllocator",
    "fulfillment_operation_id",
    "nested_operation_id",
    "top_level_operation_id",
    "LeaseGrantor",
    "LeaseManager",
    "LeaseRenewer",
    "ObjectGroupRecord",
    "ReplicationManager",
    "ReadConsistency",
    "ReadCoordinator",
    "ReadOptions",
    "LocalReplica",
    "RingMap",
    "GroupPolicy",
    "ReplicationStyle",
]
