"""A2 (ablation) -- Totem flow-control window.

DESIGN.md's second called-out design choice: the number of new messages a
processor may broadcast per token visit.  A window of 1 serializes every
send behind a full token rotation; a large window lets a bursty sender
drain its queue in one visit at the cost of burstier network occupancy.

Workload: one member of a 4-ring broadcasts a burst of 200 messages.

Expected shape: time-to-drain falls steeply from window=1 and saturates
once the window exceeds the typical queue backlog per rotation.
"""

from repro.bench import ResultTable
from repro.totem import TotemCluster, TotemConfig

WINDOWS = [1, 4, 16, 64]
BURST = 200


def run_one(window, seed=0):
    config = TotemConfig(window=window)
    cluster = TotemCluster(["n1", "n2", "n3", "n4"], seed=seed,
                           config=config).start()
    cluster.run_until_stable(timeout=5.0)
    sim = cluster.sim
    start = sim.now
    for index in range(BURST):
        cluster.processors["n2"].send(("m", index), size=128)

    def delivered(node):
        return len([
            d for d in cluster.deliveries[node]
            if not (isinstance(d.payload, tuple) and d.payload
                    and d.payload[0] == "announce")
        ])

    deadline = sim.now + 120.0
    while sim.now < deadline and delivered("n4") < BURST:
        sim.run_for(0.01)
    assert delivered("n4") == BURST
    return sim.now - start


def run_experiment():
    return {window: run_one(window) for window in WINDOWS}


def test_a2_totem_window(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    table = ResultTable(
        "A2: burst drain time vs Totem send window (4-ring, 200 messages)",
        ["window", "drain time", "speedup vs window=1"],
    )
    base = results[WINDOWS[0]]
    for window in WINDOWS:
        table.add_row(window, results[window], "%.1fx" % (base / results[window]))
    table.note("expected shape: steep improvement from 1, saturating once "
               "the window covers the per-rotation backlog")
    table.emit("a2_totem_window")

    # Monotone non-increasing drain time with growing window.
    times = [results[w] for w in WINDOWS]
    assert all(b <= a * 1.05 for a, b in zip(times, times[1:]))
    # Window 1 is dramatically slower than the largest window.
    assert times[0] > times[-1] * 3
