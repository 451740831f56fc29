"""E10 -- Per-layer latency breakdown of one replicated invocation.

Where does a group invocation spend its time?  The telemetry span opened
at the interception point travels with the request through the Totem
ordering layer and the wire framing (the span id rides the DataMessage
frame), and the tracker attributes each inter-mark interval to a layer:

- interception: divert + FT envelope + GIOP encode (intercept -> enqueue)
- totem:        token wait + ordering                (enqueue -> sent)
- wire:         framing                              (sent -> delivered)
- replication:  transit + suppression + dispatch     (delivered -> executed)
- runtime:      reply multicast + future resolution  (executed -> reply)

Both substrates report from the *same span data structures*: the
simulated runtime in virtual time (where synchronous stages legitimately
cost zero) and the asyncio runtime in wall clock over localhost UDP.
The flight recorder's buffer is dumped beside the result table.

Script mode::

    PYTHONPATH=src python benchmarks/bench_e10_latency_breakdown.py --runtime sim
    PYTHONPATH=src python benchmarks/bench_e10_latency_breakdown.py --runtime asyncio
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from benchlib import CLIENT_NODE, replicated_system, sequential_latencies
from repro.bench import ResultTable, summarize
from repro.bench.harness import results_dir
from repro.replication import ReplicationStyle
from repro.telemetry import LAYER_INTERVALS

_SMOKE = os.environ.get("BENCH_SMOKE") == "1"
REQUESTS = 8 if _SMOKE else 30
PAYLOAD_BYTES = 512

LAYERS = [layer for layer, _start, _end in LAYER_INTERVALS]
WIRE_NOTE = ("delivery overlaps ordering: the sender delivers its own "
             "message at the token visit that orders it, so the wire "
             "interval collapses into send time and transit shows up "
             "under replication")


def run_experiment(runtime_kind="sim", requests=None):
    """Returns (per-layer latency lists, end-to-end list, telemetry)."""
    requests = REQUESTS if requests is None else requests
    system, ior = replicated_system(
        ReplicationStyle.ACTIVE, runtime_kind=runtime_kind,
    )
    try:
        stub = system.stub(CLIENT_NODE, ior)
        payload = "x" * PAYLOAD_BYTES
        system.call(stub.echo(payload), timeout=60.0)  # warm-up
        telemetry = system.runtime.telemetry
        # Only measure the steady-state requests below.
        telemetry.spans.finished.clear()
        sequential_latencies(system.runtime, stub, payload, requests,
                             timeout=60.0)
        layers = telemetry.spans.layer_durations()
        end_to_end = telemetry.spans.end_to_end_durations()
        recorder_name = (
            "e10_flight_recorder.jsonl" if runtime_kind == "sim"
            else "e10_flight_recorder_asyncio.jsonl")
        telemetry.recorder.dump(os.path.join(results_dir(), recorder_name))
        return layers, end_to_end, telemetry
    finally:
        system.runtime.close()


def build_table(layers, end_to_end, runtime_kind="sim"):
    clock = "virtual time" if runtime_kind == "sim" else "wall clock, real sockets"
    table = ResultTable(
        "E10: per-layer latency of one active-replication invocation (%s)"
        % clock,
        ["layer", "spans", "p50", "p99", "mean", "share"],
    )
    total_mean = summarize(end_to_end).mean if end_to_end else 0.0
    for layer in LAYERS:
        samples = layers[layer]
        stats = summarize(samples)
        share = (stats.mean / total_mean) if total_mean else 0.0
        table.add_row(layer, len(samples), stats.p50, stats.p99, stats.mean,
                      "%.1f%%" % (share * 100.0))
    e2e = summarize(end_to_end)
    table.add_row("end-to-end", len(end_to_end), e2e.p50, e2e.p99, e2e.mean,
                  "100.0%")
    return table


def test_e10_latency_breakdown(benchmark):
    layers, end_to_end, telemetry = benchmark.pedantic(
        run_experiment, rounds=1, iterations=1
    )

    table = build_table(layers, end_to_end)
    table.note("layer intervals come from one span per invocation; "
               "in virtual time synchronous stages cost exactly zero")
    table.note(WIRE_NOTE)
    table.emit("e10_latency_breakdown")

    # One complete span per measured request, every layer populated.
    assert len(end_to_end) == REQUESTS
    for layer in LAYERS:
        assert len(layers[layer]) == REQUESTS
        assert all(duration >= 0.0 for duration in layers[layer])
    # The layer intervals tile the span: they sum to the end-to-end time.
    for index in range(REQUESTS):
        total = sum(layers[layer][index] for layer in LAYERS)
        assert abs(total - end_to_end[index]) < 1e-9
    # The sender delivers its own message at the visit that orders it, so
    # the wire interval is zero; the token wait is real virtual time.
    assert summarize(layers["totem"]).mean > 0.0
    # The flight recorder captured the run and exports deterministically.
    lines = telemetry.recorder.export_lines()
    assert lines and all(line.startswith("{") for line in lines)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="E10 per-layer latency breakdown over either runtime."
    )
    parser.add_argument(
        "--runtime", choices=("sim", "asyncio"), default="sim",
        help="sim: deterministic virtual time; asyncio: real UDP sockets",
    )
    options = parser.parse_args(argv)
    requests = 10 if options.runtime == "asyncio" else REQUESTS
    layers, end_to_end, _telemetry = run_experiment(
        runtime_kind=options.runtime, requests=requests,
    )
    table = build_table(layers, end_to_end, runtime_kind=options.runtime)
    name = "e10_latency_breakdown"
    table.note(WIRE_NOTE)
    if options.runtime == "asyncio":
        table.note("wall-clock on localhost UDP; same span mark points as "
                   "the simulated run, machine-dependent magnitudes")
        table.emit(name + "_asyncio")
    else:
        table.emit(name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
