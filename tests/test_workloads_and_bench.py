"""Tests for workload generators, sample servants, and bench metrics."""

import pytest

from repro.bench import ResultTable, summarize
from repro.bench.metrics import percentile
from repro.orb import ORB
from repro.simnet import Network, Simulator
from repro.workloads import (
    Accumulator,
    ClosedLoopClient,
    ComputeService,
    Counter,
    EchoServer,
    Inventory,
    KeyValueStore,
)


def serve(servant):
    sim = Simulator()
    net = Network(sim)
    server = ORB(net, net.add_node("server"))
    client = ORB(net, net.add_node("client"))
    ior = server.poa.activate(servant)
    return sim, client.stub(ior)


def test_closed_loop_client_runs_to_completion():
    sim, stub = serve(EchoServer())
    client = ClosedLoopClient(sim, stub, lambda i: ("echo", (i,)), count=10).start()
    sim.run_for(5.0)
    assert client.finished
    assert len(client.records) == 10
    assert [r.result for r in client.records] == list(range(10))
    assert all(r.latency > 0 for r in client.records)
    assert client.errors() == []


def test_closed_loop_think_time_spaces_requests():
    sim, stub = serve(EchoServer())
    client = ClosedLoopClient(
        sim, stub, lambda i: ("echo", (i,)), count=5, think_time=0.1
    ).start()
    sim.run_for(5.0)
    sends = [r.send_time for r in client.records]
    assert all(b - a >= 0.1 for a, b in zip(sends, sends[1:]))


def test_closed_loop_on_finished_callback():
    sim, stub = serve(EchoServer())
    done = []
    client = ClosedLoopClient(
        sim, stub, lambda i: ("echo", (i,)), count=3, on_finished=done.append
    ).start()
    sim.run_for(5.0)
    assert done == [client]


def test_closed_loop_records_errors():
    sim, stub = serve(KeyValueStore())
    client = ClosedLoopClient(
        sim, stub, lambda i: ("get", ("missing-%d" % i,)), count=3
    ).start()
    sim.run_for(5.0)
    assert client.finished
    assert len(client.errors()) == 3
    assert client.latencies() == []


def test_servant_state_round_trips():
    for servant, mutate in [
        (Counter(), lambda s: s.increment(5)),
        (EchoServer(), lambda s: s.echo("x")),
        (KeyValueStore(), lambda s: s.put("k", "v")),
        (Inventory(stock=2), lambda s: s.sell("o1")),
        (Accumulator(), lambda s: s.apply(3)),
        (ComputeService(), lambda s: s.compute("j", 10)),
    ]:
        mutate(servant)
        state = servant.get_state()
        clone = type(servant)()
        clone.set_state(state)
        assert clone.get_state() == state


def test_inventory_back_orders_when_empty():
    inventory = Inventory(stock=1)
    assert inventory.sell("a")["status"] == "shipped"
    result = inventory.sell("b")
    assert result["status"] == "back-ordered"
    assert inventory.report()["back_orders"] == ["b"]
    inventory.manufacture(2)
    assert inventory.stock_level() == 2


def test_accumulator_order_sensitivity():
    a, b = Accumulator(), Accumulator()
    a.apply(1)
    a.apply(2)
    b.apply(2)
    b.apply(1)
    assert a.value != b.value  # non-commutative by construction


def test_summarize_statistics():
    stats = summarize([0.001 * i for i in range(1, 101)])
    assert stats.count == 100
    assert stats.mean == pytest.approx(0.0505)
    assert stats.p50 == pytest.approx(0.050)
    assert stats.p95 == pytest.approx(0.095)
    assert stats.minimum == pytest.approx(0.001)
    assert stats.maximum == pytest.approx(0.100)
    assert stats.stddev > 0
    assert set(stats.as_dict()) == {
        "count", "mean", "p50", "p95", "p99", "minimum", "maximum", "stddev"
    }


def test_summarize_rejects_empty():
    with pytest.raises(ValueError):
        summarize([])
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_result_table_renders_and_validates():
    table = ResultTable("T", ["a", "b"])
    table.add_row(1, 0.0005).note("a note")
    text = table.render()
    assert "T" in text and "a note" in text and "500.0 us" in text
    with pytest.raises(ValueError):
        table.add_row(1)
