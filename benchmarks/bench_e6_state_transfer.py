"""E6 -- State transfer: blocking vs incremental, vs state size.

A new replica joins a running group (ReplicationManager.add_member) while
a client keeps a closed-loop update load on the object.  We measure:

- transfer completion: virtual time from add_member until the joiner is
  ready (state applied, buffered operations replayed);
- service stall: the longest gap between consecutive client completions
  during the transfer window (the blocking transfer suspends the sponsor's
  operation processing; the incremental transfer does not).

Expected shape: the blocking stall grows with state size; incremental
keeps the stall near the no-transfer baseline at the cost of a somewhat
longer transfer (chunks interleave with traffic).
"""

from benchlib import CLIENT_NODE
from repro.bench import ResultTable
from repro.core import EternalSystem
from repro.replication import GroupPolicy, ReplicationStyle
from repro.workloads import KeyValueStore

ENTRIES = [50, 400, 1600]
MODES = ["blocking", "incremental"]


def run_one(mode, entries, seed=0):
    system = EternalSystem(["s1", "s2", "joiner", CLIENT_NODE], seed=seed).start()
    system.stabilize()
    policy = GroupPolicy(style=ReplicationStyle.ACTIVE, state_transfer=mode)
    ior = system.create_replicated("kv", KeyValueStore, ["s1", "s2"], policy)
    system.run_for(0.5)
    stub = system.stub(CLIENT_NODE, ior)
    system.call(stub.preload(entries, 128), timeout=240.0)

    completions = []
    stop = {"flag": False}

    def issue(index=[0]):
        if stop["flag"]:
            return
        index[0] += 1
        future = stub.put("live-%06d" % index[0], "v" * 32)

        def complete(fut):
            if fut.exception() is None:
                completions.append(system.sim.now)
                issue()

        future.add_done_callback(complete)

    issue()
    system.run_for(0.3)  # steady-state baseline
    add_time = system.sim.now
    system.manager.add_member("kv", "joiner")
    deadline = system.sim.now + 240.0
    while system.sim.now < deadline:
        replica = system.engine("joiner").replica("kv")
        if replica is not None and replica.ready:
            break
        system.sim.run_for(0.02)
    replica = system.engine("joiner").replica("kv")
    assert replica is not None and replica.ready, "joiner never became ready"
    ready_time = system.sim.now
    system.run_for(0.3)
    stop["flag"] = True
    system.run_for(0.2)

    window = [t for t in completions if add_time - 0.25 <= t]
    gaps = [b - a for a, b in zip(window, window[1:])]
    stall = max(gaps) if gaps else 0.0
    # Verify the joiner actually converged.
    states = system.states_of("kv")
    assert states["joiner"] == states["s1"]
    return {"duration": ready_time - add_time, "stall": stall}


def run_experiment():
    return {
        (mode, entries): run_one(mode, entries)
        for mode in MODES
        for entries in ENTRIES
    }


def test_e6_state_transfer(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    table = ResultTable(
        "E6: state transfer to a joining replica under client load",
        ["transfer", "state entries", "transfer duration", "max service stall"],
    )
    for mode in MODES:
        for entries in ENTRIES:
            row = results[(mode, entries)]
            table.add_row(mode, entries, row["duration"], row["stall"])
    table.note("expected shape: blocking stall grows with state size; "
               "incremental stall stays near baseline")
    table.emit("e6_state_transfer")

    # Blocking stall grows with the state size.
    blocking = [results[("blocking", e)]["stall"] for e in ENTRIES]
    assert blocking[-1] > blocking[0]
    # At the largest state, incremental stalls clients less than blocking.
    assert (results[("incremental", ENTRIES[-1])]["stall"]
            < results[("blocking", ENTRIES[-1])]["stall"])
    # Both modes deliver the state eventually; durations grow with size.
    for mode in MODES:
        durations = [results[(mode, e)]["duration"] for e in ENTRIES]
        assert durations[-1] > durations[0]
