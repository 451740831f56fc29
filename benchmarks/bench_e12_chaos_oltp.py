"""E12 -- Chaos campaign over a gatewayed OLTP application.

The culmination experiment: a seeded, generative chaos campaign --
crashes with recovery, a partition with remerge, a loss burst, a
latency spike, a slow node -- runs against a three-service OLTP
application (accounts / catalog / orders, mixed replication styles,
nested cross-group invocations) while an external client offers
open-loop traffic through the gateway tier.  After the dust settles,
the invariant checker proves exactly-once execution (no lost, no
duplicated operations), replica-state convergence after remerge, and
bounded failover; the SLO report records availability and latency
percentiles under faults.

Topology (sim mode)::

    ring 0: s1 s2 s3 gw1 gw2      accounts  (ACTIVE       on s1 s2 s3)
    ring 1: s4 s5 s6 gw1 gw2      catalog   (WARM_PASSIVE on s4 s5 s6)
                                  orders    (ACTIVE       on gw1 gw2)
    outside ------- plain IIOP -> GatewayTier(gw1, gw2)

The gateways bridge both rings, so the orders servants (hosted there)
can nest invocations into accounts (ring 0) and catalog (ring 1); the
external client reaches all three groups through the tier's exported
plain-IIOP references and never participates in any ring.

Asyncio mode runs the same application in three *live OS processes*
(every node hosts all three groups on one ring) and drives the
process-capability subset of the campaign -- SIGKILL for crash,
SIGSTOP/SIGCONT for a slow window -- through the ProcessInjector,
exactly as a deployed system would experience it.

The same campaign seed regenerates the identical schedule byte for
byte; the run asserts this before arming.

Script mode::

    PYTHONPATH=src python benchmarks/bench_e12_chaos_oltp.py --runtime sim
    PYTHONPATH=src python benchmarks/bench_e12_chaos_oltp.py --runtime asyncio

Exit status is non-zero when any invariant is violated.
"""

import argparse
import contextlib
import json
import os
import socket
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from repro.bench import ResultTable
from repro.bench.harness import results_dir
from repro.chaos import (
    CampaignSpec,
    ChaosCampaign,
    InvariantChecker,
    ProcessInjector,
    SimInjector,
    build_slo_report,
    format_slo_report,
)
from repro.core import EternalSystem
from repro.core.eternal import build_node_stack
from repro.gateway import GatewayTier
from repro.orb import ORB
from repro.replication import GroupPolicy, ReplicationStyle
from repro.runtime.sim import SimRuntime
from repro.totem.config import TotemConfig
from repro.workloads import AccountsService, CatalogService, OrdersService
from repro.workloads.oltp import OltpTraffic

_SMOKE = os.environ.get("BENCH_SMOKE") == "1"

SEED = 0
SERVERS = ["s%d" % (i + 1) for i in range(6)]
GATEWAYS = ["gw1", "gw2"]
RINGS = {0: SERVERS[:3] + GATEWAYS, 1: SERVERS[3:] + GATEWAYS}
OUTSIDE = "outside"

ACCOUNTS = {"alice": 1000, "bob": 1000, "carol": 1000}
STOCK = {"widget": 500, "gadget": 500, "gizmo": 500}

RATE = 10 if _SMOKE else 20            # arrivals/s of OLTP traffic
TRAFFIC_DURATION = 4.0 if _SMOKE else 8.0
CAMPAIGN_DURATION = 3.0 if _SMOKE else 6.0
FAILOVER_BOUND = 5.0                   # crash -> next ring install, seconds
SETTLE = 6.0                           # post-campaign reconciliation window

# The campaign sweep's pinned scale (tests/test_campaign_sweep.py,
# benchmarks/fingerprints.py): a few seconds of virtual time per seed.
# Campaign generation derives from the spec's duration and the traffic
# from rate x duration, so changing any of these re-times every seed.
SWEEP_SCALE = {
    "RATE": 6,
    "TRAFFIC_DURATION": 2.0,
    "CAMPAIGN_DURATION": 2.0,
    "SETTLE": 4.0,
}


@contextlib.contextmanager
def sweep_scale():
    """Run :func:`run_sim` at :data:`SWEEP_SCALE` inside the block."""
    saved = {name: globals()[name] for name in SWEEP_SCALE}
    globals().update(SWEEP_SCALE)
    try:
        yield
    finally:
        globals().update(saved)

# Asyncio (live-process) mode.
AIO_REPLICAS = ("r1", "r2", "r3")
AIO_CLIENT = "client"
AIO_DOMAIN = "e12-chaos"
AIO_RATE = 5 if _SMOKE else 10
AIO_TRAFFIC_DURATION = 4.0 if _SMOKE else 8.0
AIO_CAMPAIGN_DURATION = 3.0 if _SMOKE else 6.0
AIO_FAILOVER_BOUND = 10.0


def sim_campaign_spec(seed, nodes):
    """The full-vocabulary campaign the simulated network can absorb."""
    return CampaignSpec(
        nodes=nodes,
        seed=seed,
        start=1.0,
        duration=CAMPAIGN_DURATION,
        crashes=2,
        crash_targets=("s2", "s5"),
        downtime=(0.8, 1.5),
        partitions=1,
        partition_targets=("s3", "s6"),
        heal=(1.0, 2.0),
        loss_bursts=1,
        loss_rate=(0.05, 0.12),
        loss_duration=(0.8, 1.5),
        latency_spikes=1,
        latency_extra=(0.5e-3, 2e-3),
        latency_duration=(0.8, 1.5),
        slow_nodes=1,
        slow_delay=(1e-3, 3e-3),
        slow_duration=(0.8, 1.5),
    )


def assert_reproducible(spec_factory, campaign):
    """The same seed must regenerate the identical schedule, byte for byte."""
    regenerated = ChaosCampaign(spec_factory())
    if regenerated.to_json() != campaign.to_json():
        raise AssertionError("campaign schedule is not reproducible for "
                             "seed %r" % campaign.spec.seed)


def run_sim(seed=SEED):
    """Full campaign on the deterministic simulation; returns the verdict."""
    runtime = SimRuntime(seed=seed, keep_trace_records=True)
    system = EternalSystem(
        SERVERS + GATEWAYS, runtime=runtime, rings=RINGS
    ).start()
    try:
        system.stabilize()
        ior_accounts = system.create_replicated(
            "accounts", lambda: AccountsService(dict(ACCOUNTS)),
            SERVERS[:3], GroupPolicy(style=ReplicationStyle.ACTIVE), ring=0,
        )
        ior_catalog = system.create_replicated(
            "catalog", lambda: CatalogService(dict(STOCK)),
            SERVERS[3:], GroupPolicy(style=ReplicationStyle.WARM_PASSIVE),
            ring=1,
        )
        accounts_ref = ior_accounts.to_string()
        catalog_ref = ior_catalog.to_string()
        ior_orders = system.create_replicated(
            "orders",
            lambda: OrdersService(catalog_ref=catalog_ref,
                                  accounts_ref=accounts_ref),
            GATEWAYS, GroupPolicy(style=ReplicationStyle.ACTIVE), ring=1,
        )
        system.run_for(0.5)

        tier = GatewayTier(
            "edge", [system.engine(gw) for gw in GATEWAYS]
        )
        system.run_for(0.5)
        exported = {
            "accounts": tier.export(ior_accounts),
            "catalog": tier.export(ior_catalog),
            "orders": tier.export(ior_orders),
        }
        outside = ORB(system.net, system.net.add_node(OUTSIDE))
        stubs = {name: outside.stub(ref) for name, ref in exported.items()}

        traffic = OltpTraffic(
            runtime, stubs, rate=RATE, duration=TRAFFIC_DURATION
        ).start()

        all_nodes = SERVERS + GATEWAYS + [OUTSIDE]
        spec = sim_campaign_spec(seed, all_nodes)
        campaign = ChaosCampaign(spec)
        assert_reproducible(lambda: sim_campaign_spec(seed, all_nodes),
                            campaign)
        SimInjector(runtime).arm(campaign)

        horizon = max(TRAFFIC_DURATION, 1.0 + campaign.end_time) + SETTLE
        deadline = runtime.now + horizon + 30.0
        system.run_for(horizon)
        while not traffic.finished and runtime.now < deadline:
            system.run_for(1.0)

        checker = InvariantChecker()
        states = {
            group: list(system.states_of(group).values())
            for group in ("accounts", "catalog", "orders")
        }
        ledgers = {group: states[group][0]["ledger"]
                   for group in states if states[group]}
        by_service = {}
        for record in traffic.mutating_records():
            by_service.setdefault(record.service, []).append(record)
        for service, records in sorted(by_service.items()):
            checker.check_operations(records, ledgers.get(service, {}))
        checker.check_no_duplicates(ledgers)
        checker.check_convergence(states)
        events = [(r.time, r.category, r.detail, 0)
                  for r in runtime.trace.records]
        durations = checker.check_failover(events, FAILOVER_BOUND)

        slo = build_slo_report(traffic.records, durations, campaign,
                               checker.report)
        slo["pending"] = traffic.pending
        return campaign, checker.report, slo
    finally:
        runtime.close()


# ---------------------------------------------------------------------------
# Asyncio mode: live processes + ProcessInjector
# ---------------------------------------------------------------------------


def parse_address_map(spec):
    addresses = {}
    for item in spec.split(","):
        name, _, hostport = item.partition("=")
        host, _, port = hostport.rpartition(":")
        addresses[name] = (host, int(port))
    return addresses


def pick_ports(count):
    """Reserve ephemeral UDP ports by bind-and-release."""
    sockets, ports = [], []
    for _ in range(count):
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.bind(("127.0.0.1", 0))
        sockets.append(sock)
        ports.append(sock.getsockname()[1])
    for sock in sockets:
        sock.close()
    return ports


def build_runtime(node_id, addresses, seed):
    from repro.runtime.aio import AsyncioRuntime

    runtime = AsyncioRuntime(seed=seed)
    endpoint = runtime.add_node(node_id, port=addresses[node_id][1])
    for name, address in addresses.items():
        if name != node_id:
            runtime.register_peer(name, address)
    return runtime, endpoint


def run_replica(node_id, addresses):
    """Child-process entry: host all three OLTP groups on one ring."""
    runtime, endpoint = build_runtime(
        node_id, addresses, seed=AIO_REPLICAS.index(node_id) + 1
    )
    processor, _groups, _orb, engine = build_node_stack(
        endpoint, totem_config=TotemConfig.realtime(), domain=AIO_DOMAIN
    )
    engine.host_replica(
        "accounts", AccountsService(dict(ACCOUNTS)),
        GroupPolicy(style=ReplicationStyle.ACTIVE), ready=True,
    )
    engine.host_replica(
        "catalog", CatalogService(dict(STOCK)),
        GroupPolicy(style=ReplicationStyle.WARM_PASSIVE), ready=True,
    )
    accounts_ref = engine.group_ior("accounts", AccountsService).to_string()
    catalog_ref = engine.group_ior("catalog", CatalogService).to_string()
    engine.host_replica(
        "orders",
        OrdersService(catalog_ref=catalog_ref, accounts_ref=accounts_ref),
        GroupPolicy(style=ReplicationStyle.ACTIVE), ready=True,
    )
    processor.start()
    print("READY %s pid=%d" % (node_id, os.getpid()), flush=True)
    runtime.run_forever()


def wait_for_ring(runtime, processor, members, timeout=25.0):
    deadline = time.monotonic() + timeout
    members = sorted(members)
    while time.monotonic() < deadline:
        ring = processor.installed_ring
        if (processor.state == "operational" and ring is not None
                and sorted(ring.members) == members):
            return
        runtime.run_for(0.05)
    raise SystemExit("ring %s did not form within %.0fs (state=%s, ring=%s)"
                     % (members, timeout, processor.state,
                        processor.installed_ring))


def aio_campaign_spec(seed):
    """The process-injectable subset: SIGKILL a node, SIGSTOP another."""
    return CampaignSpec(
        nodes=AIO_REPLICAS,
        seed=seed,
        start=1.0,
        duration=AIO_CAMPAIGN_DURATION,
        crashes=1,
        crash_targets=("r3",),
        partitions=0,
        slow_nodes=1,
        slow_delay=(0.3, 0.3),      # param is only a marker at process level
        slow_duration=(1.0, 1.5),   # SIGSTOP window
        capabilities=("crash", "slow"),
    )


def run_asyncio(seed=SEED):
    """Live-process campaign over localhost UDP; returns the verdict."""
    ports = pick_ports(len(AIO_REPLICAS) + 1)
    all_nodes = AIO_REPLICAS + (AIO_CLIENT,)
    addresses = {name: ("127.0.0.1", port)
                 for name, port in zip(all_nodes, ports)}
    spec_string = ",".join("%s=%s:%d" % (name, host, port)
                           for name, (host, port) in addresses.items())
    children = {}
    runtime = None
    try:
        for name in AIO_REPLICAS:
            children[name] = subprocess.Popen(
                [sys.executable, os.path.abspath(__file__),
                 "--runtime", "asyncio", "--role", "replica",
                 "--node", name, "--addresses", spec_string],
                stdout=subprocess.PIPE, text=True,
            )
        for name, child in children.items():
            line = child.stdout.readline().strip()
            if not line.startswith("READY"):
                raise SystemExit("replica %s failed to start: %r"
                                 % (name, line))

        runtime, endpoint = build_runtime(AIO_CLIENT, addresses, seed=0)
        runtime.trace.keep_records = True
        processor, _groups, orb, engine = build_node_stack(
            endpoint, totem_config=TotemConfig.realtime(), domain=AIO_DOMAIN
        )
        processor.start()
        wait_for_ring(runtime, processor, all_nodes)
        runtime.run_for(0.5)  # let group announces propagate

        stubs = {
            "accounts": orb.stub(engine.group_ior("accounts",
                                                  AccountsService)),
            "catalog": orb.stub(engine.group_ior("catalog", CatalogService)),
            "orders": orb.stub(engine.group_ior("orders", OrdersService)),
        }
        # Warm up every connection before the faults start.
        runtime.wait_for(stubs["accounts"].balance_of("alice"), timeout=15.0)
        runtime.wait_for(stubs["catalog"].stock_of("widget"), timeout=15.0)
        runtime.wait_for(stubs["orders"].order_count(), timeout=15.0)

        traffic = OltpTraffic(
            runtime, stubs, rate=AIO_RATE, duration=AIO_TRAFFIC_DURATION
        ).start()

        spec = aio_campaign_spec(seed)
        campaign = ChaosCampaign(spec)
        assert_reproducible(lambda: aio_campaign_spec(seed), campaign)
        injector = ProcessInjector(runtime, children)
        injector.arm(campaign)

        horizon = max(AIO_TRAFFIC_DURATION, 1.0 + campaign.end_time) + SETTLE
        deadline = time.monotonic() + horizon + 60.0
        runtime.run_for(horizon)
        while not traffic.finished and time.monotonic() < deadline:
            runtime.run_for(1.0)

        checker = InvariantChecker()
        ledgers = {}
        for name, stub in sorted(stubs.items()):
            ledgers[name] = runtime.wait_for(stub.ledger_snapshot(),
                                             timeout=20.0)
        by_service = {}
        for record in traffic.mutating_records():
            by_service.setdefault(record.service, []).append(record)
        for service, records in sorted(by_service.items()):
            checker.check_operations(records, ledgers.get(service, {}))
        checker.check_no_duplicates(ledgers)
        # Convergence needs per-replica state the remote group cannot
        # expose through one stub; the sim mode covers it.
        events = [(r.time, r.category, r.detail, 0)
                  for r in runtime.trace.records]
        durations = checker.check_failover(
            events, AIO_FAILOVER_BOUND, crash_times=injector.crash_times())

        slo = build_slo_report(traffic.records, durations, campaign,
                               checker.report)
        slo["pending"] = traffic.pending
        return campaign, checker.report, slo
    finally:
        if runtime is not None:
            runtime.close()
        for child in children.values():
            child.kill()
            child.wait()


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def build_table(slo, report, runtime_kind="sim"):
    clock = ("virtual time" if runtime_kind == "sim"
             else "wall clock, live processes")
    table = ResultTable(
        "E12: OLTP under a seeded chaos campaign (%s)" % clock,
        ["service", "offered", "ok", "availability", "p50_s", "p99_s"],
    )
    latency = slo["latency"]
    table.add_row(
        "overall", slo["operations"]["offered"], slo["operations"]["ok"],
        # Pre-format: the table's float formatter renders durations.
        "%.4f" % slo["availability"] if slo["availability"] is not None
        else "n/a",
        latency.get("p50"), latency.get("p99"),
    )
    for service, stats in sorted(slo["services"].items()):
        lat = stats["latency"]
        table.add_row(service, stats["offered"], stats["ok"], "",
                      lat.get("p50"), lat.get("p99"))
    failover = slo["failover"]
    if failover["count"]:
        table.note("failover: n=%d mean=%.4fs max=%.4fs" % (
            failover["count"], failover["mean"], failover["max"]))
    campaign = slo.get("campaign") or {}
    table.note("campaign seed=%s events=%s by_kind=%s" % (
        campaign.get("seed"), campaign.get("events"),
        campaign.get("by_kind")))
    table.note("invariants: %s (%d checks, %d violations)" % (
        "OK" if report.ok else "VIOLATED", len(report.checks),
        len(report.violations)))
    return table


def emit_results(campaign, report, slo, runtime_kind):
    suffix = "" if runtime_kind == "sim" else "_asyncio"
    table = build_table(slo, report, runtime_kind=runtime_kind)
    table.emit("e12_chaos_oltp" + suffix)
    slo_path = os.path.join(results_dir(),
                            "e12_chaos_oltp%s_slo.json" % suffix)
    payload = dict(slo)
    payload["schedule"] = json.loads(campaign.to_json())
    with open(slo_path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(format_slo_report(slo))
    if not report.ok:
        print(report.format())
    return table


def test_e12_chaos_oltp(benchmark):
    campaign, report, slo = benchmark.pedantic(run_sim, rounds=1,
                                               iterations=1)
    emit_results(campaign, report, slo, "sim")
    by_kind = campaign.summary()["by_kind"]
    assert by_kind.get("crash", 0) >= 2
    assert by_kind.get("partition", 0) >= 1
    assert by_kind.get("merge", 0) >= 1
    assert by_kind.get("loss", 0) >= 1
    assert by_kind.get("latency", 0) >= 1
    assert report.ok, report.format()
    assert slo["pending"] == 0
    assert slo["availability"] is not None and slo["availability"] > 0.9


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="E12 chaos campaign over the gatewayed OLTP application."
    )
    parser.add_argument(
        "--runtime", choices=("sim", "asyncio"), default="sim",
        help="sim: deterministic virtual time; asyncio: live OS processes",
    )
    parser.add_argument("--seed", type=int, default=SEED)
    parser.add_argument("--role", choices=("driver", "replica"),
                        default="driver", help=argparse.SUPPRESS)
    parser.add_argument("--node", help=argparse.SUPPRESS)
    parser.add_argument("--addresses", help=argparse.SUPPRESS)
    options = parser.parse_args(argv)
    if options.role == "replica":
        run_replica(options.node, parse_address_map(options.addresses))
        return 0
    if options.runtime == "sim":
        campaign, report, slo = run_sim(seed=options.seed)
    else:
        campaign, report, slo = run_asyncio(seed=options.seed)
    emit_results(campaign, report, slo, options.runtime)
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
