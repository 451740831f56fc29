"""Workload components: sample servants and request generators.

The servants here are the applications used throughout the tests,
examples, and benchmarks: a counter (echo-style minimal object), a bank
account (the classic replication demo), a key-value store (parameterizable
state size for the state-transfer experiments), the automobile-sales
inventory from the Eternal papers' running example, and a compute service
(parameterizable operation cost for the active-vs-passive tradeoff).
:mod:`repro.workloads.oltp` adds the multi-group order-processing
application (accounts / catalog / orders with nested cross-group
invocations and op-id ledgers) that chaos campaigns drive.
"""

from repro.workloads.apps import (
    Accumulator,
    BankAccount,
    ComputeService,
    Counter,
    EchoServer,
    InsufficientFunds,
    Inventory,
    KeyValueStore,
)
from repro.workloads.generators import ClosedLoopClient, RequestRecord
from repro.workloads.oltp import (
    DEFAULT_MIX,
    READ_MIX,
    READ_OPERATIONS,
    AccountsService,
    CatalogService,
    InsufficientBalance,
    OltpRecord,
    OltpTraffic,
    OrdersService,
    OutOfStock,
)

__all__ = [
    "Accumulator",
    "BankAccount",
    "ComputeService",
    "Counter",
    "EchoServer",
    "InsufficientFunds",
    "Inventory",
    "KeyValueStore",
    "ClosedLoopClient",
    "RequestRecord",
    "AccountsService",
    "CatalogService",
    "OrdersService",
    "OltpRecord",
    "OltpTraffic",
    "OutOfStock",
    "InsufficientBalance",
    "DEFAULT_MIX",
    "READ_MIX",
    "READ_OPERATIONS",
]
