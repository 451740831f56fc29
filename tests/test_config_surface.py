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
        "token_retransmit_timeout", "token_retransmit_limit",
        "token_loss_timeout", "join_interval", "consensus_timeout",
        "commit_timeout", "recovery_retry_timeout", "recovery_attempt_limit",
        "window", "beacon_interval", "retransmit_budget",
    ],
    AsyncioRuntime: ["seed", "loop", "host"],
    GroupPolicy: [
        "style", "min_replicas", "checkpoint_interval_ops", "state_transfer",
        "update_mode", "dispatch_policy", "sanitize_environment",
        "read_leases", "read_lease_duration", "read_lease_margin",
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


def test_no_totem_option_selects_a_data_path():
    defaults = vars(TotemConfig())
    assert [name for name, value in defaults.items()
            if isinstance(value, bool)] == []
    assert not {"pipelining", "token_hold"} & set(defaults)


def test_config_flags_hygiene_number():
    """``repo.config_flags`` as the repo benchmark counts it."""
    flags = sum(len(SURFACE[cls])
                for cls in (TotemConfig, GroupPolicy, AsyncioRuntime))
    assert flags <= 24


@pytest.mark.parametrize("config", [
    TotemConfig(),
    TotemConfig.realtime(),
    TotemConfig(token_retransmit_timeout=1e-4),
    TotemConfig().copy(token_retransmit_timeout=0.3),
    TotemConfig.realtime(token_retransmit_timeout=0.01),
], ids=["default", "realtime", "constructor", "copy", "realtime-override"])
def test_the_representatives_waits_stay_below_the_retransmit_timeout(config):
    # Hold plus a paced rotation must not be read as a lost token.
    assert 0 < config.min_rotation < config.idle_hold
    assert (config.idle_hold + config.min_rotation
            < config.token_retransmit_timeout)
    for name in ("idle_hold", "min_rotation"):
        with pytest.raises(AttributeError):
            setattr(config, name, 1.0)      # derived, not a knob


def test_the_read_lease_interval_is_derived_from_the_duration():
    policy = GroupPolicy(read_lease_duration=0.6)
    assert policy.read_lease_interval == pytest.approx(0.2)
    assert policy.copy(read_lease_duration=0.3).read_lease_interval \
        == pytest.approx(0.1)
    with pytest.raises(AttributeError):
        policy.read_lease_interval = 1.0    # derived, not a knob
