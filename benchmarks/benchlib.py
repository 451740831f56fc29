"""Shared builders for the benchmark suite (experiments E1-E9).

Each benchmark measures *virtual* time and protocol message counts inside
the deterministic simulation; the pytest-benchmark wall-clock numbers
merely record how long the simulation itself takes to run.

The latency experiments additionally run on the real-socket runtime
(``runtime_kind="asyncio"``): the identical protocol path -- same Totem
cores, same GIOP encoding, same replication mechanisms -- over asyncio
UDP sockets on localhost, measured in wall-clock time.  Those numbers
are machine-dependent; their value is the apples-to-apples *shape*
comparison against the simulated columns.
"""

from repro.core import EternalSystem
from repro.orb import ORB
from repro.replication import GroupPolicy, ReplicationStyle
from repro.runtime.sim import SimRuntime
from repro.totem.config import TotemConfig
from repro.workloads import ClosedLoopClient, EchoServer

REPLICA_NODES = ["s1", "s2", "s3"]
CLIENT_NODE = "client"


def make_runtime(runtime_kind, seed=0):
    """Build the measurement substrate: deterministic sim or real sockets."""
    if runtime_kind == "asyncio":
        from repro.runtime.aio import AsyncioRuntime

        return AsyncioRuntime(seed=seed)
    if runtime_kind == "sim":
        return SimRuntime(seed=seed)
    raise ValueError("unknown runtime kind %r" % (runtime_kind,))


def totem_config_for(runtime_kind):
    """The Totem config a benchmark system should run: wall-clock timers
    on real sockets, the simulation defaults otherwise."""
    return TotemConfig.realtime() if runtime_kind == "asyncio" else None


def drive(sim, client, timeout=120.0, step=0.01):
    """Run the simulation until a ClosedLoopClient finishes."""
    deadline = sim.now + timeout
    while not client.finished and sim.now < deadline:
        sim.run_for(step)
    if not client.finished:
        raise TimeoutError("workload did not finish in %.1fs virtual" % timeout)
    return client


def sequential_latencies(runtime, stub, payload, requests, timeout=30.0):
    """Closed-loop latency measurement driven through the runtime clock.

    Each latency is also recorded into the runtime telemetry's
    ``bench.latency`` histogram, so percentile reporting can come from
    the shared metrics registry on either runtime.
    """
    telemetry = getattr(runtime, "telemetry", None)
    histogram = (telemetry.metrics.histogram("bench.latency")
                 if telemetry is not None else None)
    latencies = []
    for _ in range(requests):
        started = runtime.now
        runtime.wait_for(stub.echo(payload), timeout=timeout)
        elapsed = runtime.now - started
        if histogram is not None:
            histogram.record(elapsed)
        latencies.append(elapsed)
    return latencies


def unreplicated_latencies(payload_bytes, requests, seed=0, runtime_kind="sim"):
    """Baseline: plain ORB over the TCP-like transport, no replication."""
    runtime = make_runtime(runtime_kind, seed=seed)
    try:
        server = ORB(runtime.add_node("server"))
        client_orb = ORB(runtime.add_node("client"))
        ior = server.poa.activate(EchoServer())
        stub = client_orb.stub(ior)
        payload = "x" * payload_bytes
        runtime.wait_for(stub.echo(payload))  # connection warm-up
        if runtime_kind == "sim":
            client = ClosedLoopClient(
                runtime.sim, stub, lambda i: ("echo", (payload,)), requests
            ).start()
            drive(runtime.sim, client)
            return client.latencies()
        return sequential_latencies(runtime, stub, payload, requests)
    finally:
        runtime.close()


def replicated_system(style, replicas=3, seed=0, extra_nodes=(),
                      policy_overrides=None, servant_factory=EchoServer,
                      group="bench", runtime_kind="sim"):
    """An EternalSystem with one replicated object and a client node."""
    nodes = ["s%d" % (i + 1) for i in range(replicas)] + [CLIENT_NODE]
    nodes += list(extra_nodes)
    system = EternalSystem(
        nodes, seed=seed,
        totem_config=totem_config_for(runtime_kind),
        runtime=make_runtime(runtime_kind, seed=seed),
    ).start()
    system.stabilize(timeout=15.0 if runtime_kind == "asyncio" else 5.0)
    overrides = dict(policy_overrides or {})
    policy = GroupPolicy(style=style, **overrides)
    ior = system.create_replicated(
        group, servant_factory, ["s%d" % (i + 1) for i in range(replicas)],
        policy,
    )
    system.run_for(0.5)
    return system, ior


def replicated_latencies(style, payload_bytes, requests, replicas=3, seed=0,
                         runtime_kind="sim"):
    system, ior = replicated_system(
        style, replicas=replicas, seed=seed, runtime_kind=runtime_kind
    )
    stub = system.stub(CLIENT_NODE, ior)
    payload = "x" * payload_bytes
    system.call(stub.echo(payload), timeout=60.0)  # warm-up
    if runtime_kind == "sim":
        client = ClosedLoopClient(
            system.sim, stub, lambda i: ("echo", (payload,)), requests
        ).start()
        drive(system.sim, client)
        return client.latencies(), system
    latencies = sequential_latencies(system.runtime, stub, payload, requests)
    return latencies, system


STYLE_LABELS = {
    "unreplicated": "unreplicated CORBA",
    ReplicationStyle.ACTIVE: "Eternal active",
    ReplicationStyle.SEMI_ACTIVE: "Eternal semi-active",
    ReplicationStyle.WARM_PASSIVE: "Eternal warm passive",
    ReplicationStyle.COLD_PASSIVE: "Eternal cold passive",
}
