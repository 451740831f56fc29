"""The configuration surface, pinned name by name.

Every constructor parameter here is a dimension the chaos gate and the
benchmark must cover, and ``repo.config_flags`` in the repo benchmark is
the sum of the first three lists.  Adding, renaming or removing one is a
deliberate diff against this file.
"""

import inspect

import pytest

from repro import GroupPolicy
from repro.core import EternalSystem
from repro.runtime import AsyncioRuntime
from repro.totem import TotemConfig

SURFACE = {
    TotemConfig: [
        "token_hold", "token_retransmit_timeout", "token_retransmit_limit",
        "token_loss_timeout", "join_interval", "consensus_timeout",
        "commit_timeout", "recovery_retry_timeout", "recovery_attempt_limit",
        "window", "beacon_interval", "retransmit_budget", "pipelining",
    ],
    AsyncioRuntime: ["seed", "loop", "host"],
    GroupPolicy: [
        "style", "min_replicas", "checkpoint_interval_ops", "state_transfer",
        "update_mode", "chunk_bytes", "read_only_skip_update",
        "dispatch_policy", "sanitize_environment", "read_leases",
        "read_lease_duration", "read_lease_interval", "read_lease_margin",
    ],
    EternalSystem: [
        "node_ids", "seed", "profile", "totem_config", "domain", "runtime",
        "rings",
    ],
}


@pytest.mark.parametrize("cls", list(SURFACE), ids=lambda cls: cls.__name__)
def test_constructor_parameters_are_exactly_the_pinned_ones(cls):
    parameters = list(inspect.signature(cls.__init__).parameters)[1:]
    assert parameters == SURFACE[cls]


def test_pipelining_is_the_only_boolean_totem_option():
    defaults = vars(TotemConfig())
    assert [name for name, value in defaults.items()
            if isinstance(value, bool)] == ["pipelining"]
