"""Each layer called alone, with no cluster around it.

These are the per-layer numbers that need no workload: what one frame
costs to encode, what one GIOP message costs to marshal, what an
unreplicated ORB round trip costs on the same sockets, what the Totem
cores cost per ordered message, how fast the simulator's scheduler turns
over, and the two hygiene numbers ROADMAP tracks (``src/`` lines, config
parameters).

A layer that a later change renames or removes reports ``None`` here
instead of failing the run.
"""

import inspect
import os
import time

from perf_workloads import median, percentile

_clock = time.perf_counter

SIZES = (("512", 512), ("32k", 32 * 1024))


def _per_call(function, calls, repeats=5):
    """Median over ``repeats`` batches of seconds per ``function()`` call."""
    batches = []
    for _ in range(repeats):
        started = _clock()
        for _ in range(calls):
            function()
        batches.append((_clock() - started) / calls)
    return median(batches)


def _guard(metrics, names, measure):
    """Run ``measure()`` (returns a dict); on a missing layer report None."""
    try:
        metrics.update(measure())
    except (ImportError, AttributeError, TypeError, KeyError) as error:
        for name in names:
            metrics[name] = None
        metrics.setdefault("_notes", []).append(
            "%s: %s: %s" % (names[0], type(error).__name__, error))


def wire_metrics():
    from repro import wire
    from repro.orb import RequestMessage, encode_message, encode_value
    from repro.totem import RingId
    from repro.totem.messages import DataMessage

    ring = RingId(8, ["client", "s1", "s2", "s3"])
    result = {}
    for label, size in SIZES:
        request = encode_message(RequestMessage(
            7, "group:bench", "echo", encode_value(("x" * size,))))
        message = DataMessage(
            ring, 41, "client",
            ("app", ("bench",), ("ft-request", "bench", request)),
            len(request) + 64, "agreed", span="op:('client', 7)")
        frame = wire.encode(message)
        if wire.decode_one(frame).payload != message.payload:
            raise AssertionError("wire round trip changed the payload")
        calls = 2000 if size < 4096 else 400
        result["wire.encode_ns_" + label] = _per_call(
            lambda: wire.encode(message), calls) * 1e9
        result["wire.decode_ns_" + label] = _per_call(
            lambda: wire.decode_one(frame), calls) * 1e9
    return result


def giop_metrics():
    from repro.orb import (RequestMessage, decode_message, decode_value,
                           encode_message, encode_value)

    result = {}
    for label, size in SIZES:
        payload = "x" * size

        def encode():
            return encode_message(RequestMessage(
                7, "group:bench", "echo", encode_value((payload,))))

        data = encode()

        def decode():
            return decode_value(decode_message(data).body)

        if decode() != (payload,):
            raise AssertionError("GIOP round trip changed the arguments")
        calls = 2000 if size < 4096 else 400
        result["orb.giop_encode_us_" + label] = _per_call(encode, calls) * 1e6
        result["orb.giop_decode_us_" + label] = _per_call(decode, calls) * 1e6
    return result


def unreplicated_metrics(operations=300):
    """Plain two-node ORB echo over loopback UDP: the unreplicated baseline."""
    from repro.orb import ORB
    from repro.runtime import AsyncioRuntime
    from repro.workloads import EchoServer

    runtime = AsyncioRuntime(seed=0)
    try:
        server = ORB(runtime.add_node("server"))
        client = ORB(runtime.add_node("client"))
        stub = client.stub(server.poa.activate(EchoServer()))
        payload = "x" * 512
        runtime.wait_for(stub.echo(payload), timeout=5.0)  # connection set-up
        latencies = []
        state = {"left": operations, "start": 0.0}

        def issue():
            state["start"] = _clock()
            stub.echo(payload).add_done_callback(done)

        def done(future):
            latencies.append(_clock() - state["start"])
            if future.result() != payload:
                raise AssertionError("unreplicated echo returned another payload")
            state["left"] -= 1
            if state["left"] > 0:
                issue()

        issue()
        give_up = _clock() + 10.0
        while state["left"] > 0 and _clock() < give_up:
            runtime.run_for(0.02)
    finally:
        runtime.close()
    if state["left"] > 0:
        return {"orb.unreplicated_p50_us": None}
    return {"orb.unreplicated_p50_us": percentile(latencies, 0.5) * 1e6}


def totem_metrics(messages=2000):
    """Wall microseconds per message a 4-node ring orders and delivers."""
    from repro.totem import TotemCluster

    nodes = ["n1", "n2", "n3", "n4"]
    cluster = TotemCluster(nodes).start()
    cluster.run_until_stable(timeout=5.0)
    runtime = cluster.runtime
    before = {node: len(cluster.deliveries[node]) for node in nodes}
    per_node = messages // len(nodes)
    started = _clock()
    for node in nodes:
        processor = cluster.processors[node]
        for index in range(per_node):
            processor.send((node, index), size=512)
    total = per_node * len(nodes)
    deadline = runtime.now + 60.0
    while runtime.now < deadline and any(
            len(cluster.deliveries[node]) - before[node] < total
            for node in nodes):
        runtime.run_for(0.01)
    elapsed = _clock() - started
    if any(len(cluster.deliveries[node]) - before[node] < total
           for node in nodes):
        return {"totem.order_us_per_msg": None}
    return {"totem.order_us_per_msg": elapsed / total * 1e6}


def scheduler_metrics(events=50000):
    from repro.simnet import Simulator

    def noop():
        pass

    rates = []
    for _ in range(3):
        sim = Simulator(seed=0)
        for index in range(events):
            sim.schedule(index * 1e-6, noop)
        started = _clock()
        sim.run()
        rates.append(events / (_clock() - started))
    return {"simnet.noop_events_per_s": median(rates)}


def hygiene_metrics(source_root):
    from repro import GroupPolicy
    from repro.runtime import AsyncioRuntime
    from repro.totem import TotemConfig

    lines = 0
    for folder, _dirs, files in os.walk(source_root):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as handle:
                    lines += sum(1 for _ in handle)
    flags = sum(
        len(inspect.signature(cls.__init__).parameters) - 1
        for cls in (TotemConfig, GroupPolicy, AsyncioRuntime))
    return {"repo.src_loc": lines, "repo.config_flags": flags}


def layer_metrics(source_root):
    """Every layer-alone metric, in one dict."""
    metrics = {}
    sizes = [label for label, _size in SIZES]
    _guard(metrics,
           ["wire.%s_ns_%s" % (way, s) for way in ("encode", "decode")
            for s in sizes], wire_metrics)
    _guard(metrics,
           ["orb.giop_%s_us_%s" % (way, s) for way in ("encode", "decode")
            for s in sizes], giop_metrics)
    _guard(metrics, ["orb.unreplicated_p50_us"], unreplicated_metrics)
    _guard(metrics, ["totem.order_us_per_msg"], totem_metrics)
    _guard(metrics, ["simnet.noop_events_per_s"], scheduler_metrics)
    _guard(metrics, ["repo.src_loc", "repo.config_flags"],
           lambda: hygiene_metrics(source_root))
    return metrics
