"""E11 -- Throughput scaling of the sharded replication domain.

One cluster, one replication domain, a fixed workload of object groups
-- run first as the classic single Totem ring spanning every node, then
sharded across 2 and 4 disjoint rings.  A Totem ring's ordering latency
grows with its membership (the token visits every node per rotation);
sharding the domain keeps each ring small and rotates all rings
concurrently, so aggregate ordered-invocation throughput scales with
the ring count while every group keeps total order *within* its ring.

The workload holds everything else constant: 8 nodes, 4 object groups
of 2 active replicas each, one closed-loop client per group.  Only the
ring topology changes:

==========  ======================  =======================
rings       nodes per ring          groups per ring
==========  ======================  =======================
1           8                       4
2           4                       2
4           2                       1
==========  ======================  =======================

Script mode::

    PYTHONPATH=src python benchmarks/bench_e11_ring_scaling.py --runtime sim
    PYTHONPATH=src python benchmarks/bench_e11_ring_scaling.py --runtime asyncio
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from benchlib import make_runtime, totem_config_for
from repro.bench import ResultTable
from repro.core import EternalSystem
from repro.orb.orb_core import Future
from repro.replication import GroupPolicy, ReplicationStyle
from repro.workloads import Counter

_SMOKE = os.environ.get("BENCH_SMOKE") == "1"

NODES = ["s%d" % (i + 1) for i in range(8)]
GROUPS = 4
RING_COUNTS = (1, 2, 4)
# Elapsed time is read in 1 ms steps of virtual time (``wait_for``), so the
# smoke sweep needs enough operations for the 4-ring case to span several.
OPS_PER_GROUP = 12 if _SMOKE else 24


def ring_topology(ring_count):
    """Disjoint rings tiling the 8 nodes: {ring_id: [nodes]}."""
    per_ring = len(NODES) // ring_count
    return {
        ring: NODES[ring * per_ring:(ring + 1) * per_ring]
        for ring in range(ring_count)
    }


class _ClosedLoopDriver:
    """Issues ``ops`` invocations back-to-back; resolves ``done`` at the
    end.  All drivers progress concurrently under the runtime loop."""

    def __init__(self, stub, ops):
        self.stub = stub
        self.remaining = ops
        self.done = Future()

    def start(self):
        self._next(None)
        return self

    def _next(self, future):
        if future is not None and future.exception() is not None:
            self.done.set_exception(future.exception())
            return
        if self.remaining == 0:
            self.done.set_result(True)
            return
        self.remaining -= 1
        self.stub.increment(1).add_done_callback(self._next)


def run_topology(ring_count, runtime_kind="sim", ops_per_group=None,
                 seed=0):
    """Returns (total_ops, elapsed, per-group final counts)."""
    ops_per_group = OPS_PER_GROUP if ops_per_group is None else ops_per_group
    topology = ring_topology(ring_count)
    runtime = make_runtime(runtime_kind, seed=seed)
    system = EternalSystem(
        NODES, totem_config=totem_config_for(runtime_kind),
        runtime=runtime, rings=topology,
    ).start()
    try:
        system.stabilize(timeout=15.0 if runtime_kind == "asyncio" else 5.0)
        stubs = []
        for index in range(GROUPS):
            ring = index % ring_count
            locations = topology[ring][:2]
            ior = system.create_replicated(
                "shard-%d" % index, Counter, locations,
                GroupPolicy(style=ReplicationStyle.ACTIVE), ring=ring,
            )
            stubs.append(system.stub(locations[0], ior))
        system.run_for(0.5)
        for stub in stubs:  # connection + suppression-table warm-up
            runtime.wait_for(stub.increment(0), timeout=60.0)
        started = runtime.now
        drivers = [_ClosedLoopDriver(stub, ops_per_group).start()
                   for stub in stubs]
        for driver in drivers:
            runtime.wait_for(driver.done, timeout=600.0)
        elapsed = runtime.now - started
        finals = [runtime.wait_for(stub.read(), timeout=60.0)
                  for stub in stubs]
        return GROUPS * ops_per_group, elapsed, finals
    finally:
        runtime.close()


def run_experiment(runtime_kind="sim", ops_per_group=None):
    """{ring_count: (total_ops, elapsed, ops/s)} over the sweep."""
    results = {}
    for ring_count in RING_COUNTS:
        total, elapsed, finals = run_topology(
            ring_count, runtime_kind=runtime_kind,
            ops_per_group=ops_per_group,
        )
        expected = (ops_per_group or OPS_PER_GROUP)
        assert finals == [expected] * GROUPS, (
            "lost or duplicated increments at rings=%d: %s"
            % (ring_count, finals))
        results[ring_count] = (total, elapsed, total / elapsed)
    return results


def build_table(results, runtime_kind="sim"):
    clock = ("virtual time" if runtime_kind == "sim"
             else "wall clock, real sockets")
    table = ResultTable(
        "E11: aggregate throughput vs shard-ring count "
        "(8 nodes, 4 active groups, %s)" % clock,
        ["rings", "nodes/ring", "ops", "elapsed_s", "ops_per_s", "speedup"],
    )
    base = results[RING_COUNTS[0]][2]
    for ring_count in RING_COUNTS:
        total, elapsed, rate = results[ring_count]
        table.add_row(
            ring_count, len(NODES) // ring_count, total, elapsed, rate,
            "%.2fx" % (rate / base),
        )
    return table


def test_e11_ring_scaling(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    table = build_table(results)
    table.note("same domain, same groups, same offered load; only the "
               "ring topology changes -- ordering is per-ring, duplicate "
               "suppression domain-wide")
    table.emit("e11_ring_scaling")

    rates = {rings: rate for rings, (_t, _e, rate) in results.items()}
    # Sharding must pay: monotone improvement, near-linear at 4 rings.
    assert rates[2] > rates[1]
    assert rates[4] > rates[2]
    assert rates[4] >= 3.0 * rates[1]


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="E11 ring-scaling throughput over either runtime."
    )
    parser.add_argument(
        "--runtime", choices=("sim", "asyncio"), default="sim",
        help="sim: deterministic virtual time; asyncio: real UDP sockets",
    )
    options = parser.parse_args(argv)
    ops = (4 if _SMOKE else 10) if options.runtime == "asyncio" else None
    results = run_experiment(runtime_kind=options.runtime, ops_per_group=ops)
    table = build_table(results, runtime_kind=options.runtime)
    if options.runtime == "asyncio":
        table.note("wall-clock on localhost UDP; machine-dependent "
                   "magnitudes, same scaling shape as the simulated run")
        table.emit("e11_ring_scaling_asyncio")
    else:
        table.note("same domain, same groups, same offered load; only the "
                   "ring topology changes -- ordering is per-ring, "
                   "duplicate suppression domain-wide")
        table.emit("e11_ring_scaling")
    return 0


if __name__ == "__main__":
    sys.exit(main())
