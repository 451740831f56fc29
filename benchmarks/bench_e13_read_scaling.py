"""E13 -- Read scaling: the local read path vs the ordered path.

Every mutating invocation pays a Totem token round.  Operations declared
READ_ONLY (see :mod:`repro.orb.idl`) can instead be served at one
replica: linearizable at the leaseholding leader, bounded-stale at any
backup within its lag bound (:mod:`repro.replication.reads`).  This
experiment quantifies what that buys:

1. **Latency**: median/percentile latency of the same ``read()``
   operation over the ordered path (no annotation), the leased
   linearizable local path, and the bounded-stale local path at a
   backup.
2. **Throughput**: closed-loop mixed read/write throughput as the read
   fraction rises (0.1 / 0.5 / 0.9).  Writes always pay the token
   round; reads ride the local path, so throughput must rise with the
   read fraction.

Runs on both substrates: the deterministic simulation (virtual time)
and the asyncio runtime (real UDP sockets, wall clock).

Script mode::

    PYTHONPATH=src python benchmarks/bench_e13_read_scaling.py --runtime sim
    PYTHONPATH=src python benchmarks/bench_e13_read_scaling.py --runtime asyncio
"""

import argparse
import os
import random
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from benchlib import replicated_system
from repro.bench import ResultTable, summarize
from repro.replication import ReadConsistency, ReadOptions, ReplicationStyle
from repro.workloads import Counter

_SMOKE = os.environ.get("BENCH_SMOKE") == "1"

GROUP = "reg"
LEADER = "s1"
BACKUP = "s3"
READS = 12 if _SMOKE else 40
MIXED_OPS = 24 if _SMOKE else 80
FRACTIONS = (0.1, 0.5, 0.9)
LEASE = {"read_leases": True, "read_lease_duration": 0.4}

LINEARIZABLE = ReadOptions(mode=ReadConsistency.LINEARIZABLE)
BOUNDED = ReadOptions(mode=ReadConsistency.BOUNDED_STALE, max_lag=8)


def leased_system(runtime_kind="sim", seed=0):
    system, ior = replicated_system(
        ReplicationStyle.WARM_PASSIVE, seed=seed, runtime_kind=runtime_kind,
        policy_overrides=dict(LEASE), servant_factory=Counter, group=GROUP,
    )
    # Let renewals run until the leader holds the lease (bounded wait).
    engine = system.engine(LEADER)
    deadline = system.runtime.now + 10.0
    while not engine.leases.holds(GROUP) and system.runtime.now < deadline:
        system.run_for(0.1)
    if not engine.leases.holds(GROUP):
        raise TimeoutError("leader never acquired the read lease")
    return system, ior


def timed_call(system, invoke, timeout=30.0):
    """Latency of ``invoke()``, measured at resolution time.

    The clock starts before ``invoke`` is called: a local read resolves
    synchronously inside the call, so its whole cost lies there.
    ``wait_for`` advances the clock in coarse steps; capturing ``now``
    inside the done-callback records the exact (virtual or wall) instant
    the reply resolved, so sub-step latencies are not quantized away.
    """
    runtime = system.runtime
    started = runtime.now
    future = invoke()
    resolved = []
    future.add_done_callback(lambda _f: resolved.append(runtime.now))
    runtime.wait_for(future, timeout=timeout)
    return resolved[0] - started


def measure_latencies(system, ior, reads=READS):
    """Latency samples for the three read paths over one warm system."""
    ordered_stub = system.stub(LEADER, ior, interface=Counter)
    local_stub = system.stub(LEADER, ior, interface=Counter,
                             read=LINEARIZABLE)
    stale_stub = system.stub(BACKUP, ior, interface=Counter, read=BOUNDED)
    system.call(ordered_stub.increment(1), timeout=30.0)  # warm-up write
    system.run_for(1.0)  # position beacons reach the backups
    samples = {"ordered": [], "linearizable": [], "bounded_stale": []}
    for _ in range(reads):
        samples["ordered"].append(timed_call(system, ordered_stub.read))
        samples["linearizable"].append(timed_call(system, local_stub.read))
        samples["bounded_stale"].append(timed_call(system, stale_stub.read))
    engine = system.engine(LEADER)
    assert engine.reads.fallbacks == 0, \
        "local reads fell back; the latency samples are meaningless"
    return samples


def measure_throughput(system, ior, fraction, operations=MIXED_OPS, seed=0):
    """Closed-loop mixed workload: ops/second at one read fraction."""
    write_stub = system.stub(LEADER, ior, interface=Counter)
    read_stub = system.stub(LEADER, ior, interface=Counter,
                            read=LINEARIZABLE)
    rng = random.Random(seed)
    plan = [rng.random() < fraction for _ in range(operations)]
    started = system.runtime.now
    for is_read in plan:
        if is_read:
            system.runtime.wait_for(read_stub.read(), timeout=30.0)
        else:
            system.runtime.wait_for(write_stub.increment(1), timeout=30.0)
    elapsed = system.runtime.now - started
    return operations / elapsed if elapsed > 0 else float("inf")


def run_experiment(runtime_kind="sim", reads=None, operations=None):
    reads = READS if reads is None else reads
    operations = MIXED_OPS if operations is None else operations
    system, ior = leased_system(runtime_kind=runtime_kind)
    try:
        latencies = measure_latencies(system, ior, reads=reads)
    finally:
        system.runtime.close()
    throughputs = {}
    for fraction in FRACTIONS:
        system, ior = leased_system(runtime_kind=runtime_kind)
        try:
            throughputs[fraction] = measure_throughput(
                system, ior, fraction, operations=operations)
        finally:
            system.runtime.close()
    return latencies, throughputs


def build_tables(latencies, throughputs, runtime_kind="sim",
                 operations=MIXED_OPS):
    clock = ("virtual time" if runtime_kind == "sim"
             else "wall clock, real sockets")
    ordered_p50 = summarize(latencies["ordered"]).p50
    latency_table = ResultTable(
        "E13a: read latency by path, warm-passive x3 (%s)" % clock,
        ["path", "reads", "p50", "p99", "mean", "speedup_p50"],
    )
    for path in ("ordered", "linearizable", "bounded_stale"):
        stats = summarize(latencies[path])
        speedup = (ordered_p50 / stats.p50) if stats.p50 > 0 else float("inf")
        latency_table.add_row(path, stats.count, stats.p50, stats.p99,
                              stats.mean, "%.1fx" % speedup)
    latency_table.note(
        "ordered pays the Totem token round; linearizable is served at "
        "the leaseholding leader, bounded_stale at a backup (max_lag=8)")
    throughput_table = ResultTable(
        "E13b: closed-loop mixed throughput vs read fraction (%s)" % clock,
        ["read_fraction", "operations", "throughput_ops_per_s"],
    )
    for fraction in FRACTIONS:
        throughput_table.add_row("%.1f" % fraction, operations,
                                 throughputs[fraction])
    throughput_table.note(
        "writes keep the ordered path; declared reads ride the local "
        "path, so throughput rises with the read fraction")
    return latency_table, throughput_table


def emit_results(latencies, throughputs, runtime_kind="sim",
                 operations=MIXED_OPS):
    latency_table, throughput_table = build_tables(
        latencies, throughputs, runtime_kind=runtime_kind,
        operations=operations)
    suffix = "" if runtime_kind == "sim" else "_asyncio"
    latency_table.emit("e13_read_scaling%s" % suffix)
    throughput_table.emit("e13_read_throughput%s" % suffix)
    return latency_table, throughput_table


def test_e13_read_scaling(benchmark):
    latencies, throughputs = benchmark.pedantic(
        run_experiment, rounds=1, iterations=1
    )
    emit_results(latencies, throughputs)

    # The local linearizable path beats the ordered path by >= 3x median.
    ordered = summarize(latencies["ordered"]).p50
    local = summarize(latencies["linearizable"]).p50
    assert ordered >= 3.0 * local, \
        "ordered p50 %.6f vs local p50 %.6f" % (ordered, local)
    # Bounded-stale backup reads are local too: same order of magnitude.
    assert ordered >= 3.0 * summarize(latencies["bounded_stale"]).p50
    # Throughput rises monotonically with the read fraction.
    assert (throughputs[0.1] < throughputs[0.5] < throughputs[0.9]), \
        str(throughputs)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="E13 read-scaling experiment over either runtime."
    )
    parser.add_argument(
        "--runtime", choices=("sim", "asyncio"), default="sim",
        help="sim: deterministic virtual time; asyncio: real UDP sockets",
    )
    options = parser.parse_args(argv)
    if options.runtime == "asyncio":
        latencies, throughputs = run_experiment(
            runtime_kind="asyncio", reads=10, operations=20)
        emit_results(latencies, throughputs, runtime_kind="asyncio",
                     operations=20)
    else:
        latencies, throughputs = run_experiment(runtime_kind="sim")
        emit_results(latencies, throughputs, runtime_kind="sim")
    return 0


if __name__ == "__main__":
    sys.exit(main())
