"""Pinned flight-recorder goldens: the only data path is deterministic.

There is one Totem data path and no switch that selects another, so the
pin no longer compares against a tree "before the refactor": it says
that the same seed produces the same bytes -- twice in one process, and
equal to the hash committed in ``golden_datapath.json`` -- so a silent
behavioural change to the path everything runs on fails loudly instead
of shifting every benchmark a little.

Regenerate (only when a deliberate protocol change lands):

    PYTHONPATH=src python tests/test_datapath_golden.py --capture
"""

import hashlib
import json
import os
import sys

import pytest

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_datapath.json")


# Purely observational counters (cache hits, flush sizes, damping
# decisions, trace retention) are excluded from the metrics fingerprint;
# the JSONL hash -- unfiltered -- is what pins the protocol's behaviour.
_OVERHAUL_COUNTERS = (
    "wire.encode.cached",
    "totem.pipeline.",
    "totem.join.",
    "trace.records.dropped",
)


def _fingerprint(system):
    telemetry = system.telemetry
    jsonl = telemetry.recorder.export_jsonl()
    metrics = {
        name: value
        for name, value in telemetry.metrics.snapshot().items()
        if not name.startswith(_OVERHAUL_COUNTERS)
    }
    return {
        "jsonl_sha256": hashlib.sha256(jsonl.encode()).hexdigest(),
        "jsonl_lines": jsonl.count("\n"),
        "metrics_sha256": hashlib.sha256(
            json.dumps(metrics, sort_keys=True, default=repr).encode()
        ).hexdigest(),
    }


def _scenario_counter():
    """The determinism suite's workload: 3 nodes, ACTIVE counter, 5 calls."""
    from repro.core import EternalSystem
    from repro.replication import GroupPolicy, ReplicationStyle
    from repro.workloads import Counter

    system = EternalSystem(["n1", "n2", "n3"], seed=7).start()
    system.stabilize()
    ior = system.create_replicated(
        "ctr", Counter, ["n1", "n2"],
        GroupPolicy(style=ReplicationStyle.ACTIVE),
    )
    system.run_for(0.5)
    stub = system.stub("n3", ior)
    for step in range(5):
        system.call(stub.increment(step + 1), timeout=30.0)
    system.run_for(0.5)
    return _fingerprint(system)


def _scenario_churn_two_ring():
    """Two co-hosted rings plus a crash/recover cycle.

    Exercises RingMux peeking, the membership protocol (gather/commit/
    recovery joins) and cross-ring frame drops -- the traffic the join
    damping must NOT alter in quiet formations.
    """
    from repro.core import EternalSystem
    from repro.replication import GroupPolicy, ReplicationStyle
    from repro.workloads import Counter

    system = EternalSystem(
        ["n1", "n2", "n3", "n4"], seed=3, rings=2
    ).start()
    system.stabilize()
    ior = system.create_replicated(
        "ctr", Counter, ["n1", "n2", "n3"],
        GroupPolicy(style=ReplicationStyle.ACTIVE),
    )
    system.run_for(0.5)
    stub = system.stub("n4", ior)
    for step in range(3):
        system.call(stub.increment(step + 1), timeout=30.0)
    system.crash("n2")
    system.run_for(0.5)
    system.call(stub.increment(100), timeout=30.0)
    system.recover("n2")
    system.run_for(1.0)
    system.call(stub.increment(200), timeout=30.0)
    system.run_for(0.5)
    return _fingerprint(system)


SCENARIOS = {
    "counter": _scenario_counter,
    "churn_two_ring": _scenario_churn_two_ring,
}


def _load_golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_same_seed_same_bytes_and_the_pinned_hash(name):
    first = SCENARIOS[name]()
    assert SCENARIOS[name]() == first
    assert first == _load_golden()[name]


if __name__ == "__main__":
    if "--capture" not in sys.argv:
        raise SystemExit("usage: test_datapath_golden.py --capture")
    golden = {name: fn() for name, fn in SCENARIOS.items()}
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(golden, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(json.dumps(golden, indent=2, sort_keys=True))
