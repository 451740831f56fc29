"""Smoke test of the benchmark harness itself (not part of tier-1).

Run it explicitly, from the root of the repo::

    python3 -m pytest benchmarks/perf/test_perf_smoke.py -q

It runs every workload for about a second, so it says nothing about
performance: it checks that every declared metric is emitted under its
declared name, that ``BENCHMARK.json`` and the harness agree on what
exists, and that the tracing proxy forwards the whole runtime contract.
"""

import json
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
for path in (os.path.join(ROOT, "src"), HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
from perf_trace import TracedRuntime, Tracer  # noqa: E402
from perf_workloads import WORKLOADS  # noqa: E402

SPEC = run.load_spec()
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SMOKE_SECONDS = 1.0


def declared(section):
    return [metric["name"] for metric in SPEC[section]]


def test_spec_and_harness_declare_the_same_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["paths"] == ["benchmarks/perf"]
    assert SPEC["command"][-1] == "benchmarks/perf/run.py"


def test_declared_names_are_well_formed_and_unique():
    names = ([w["name"] for w in SPEC["workloads"]]
             + declared("end_to_end") + declared("per_layer"))
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    assert "setup_s" in declared("end_to_end")
    for metric in SPEC["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    for name in run.CHECK_EXTRA:
        assert name in declared("per_layer")


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_timed_run_emits_every_end_to_end_metric(name):
    result = run.spawn(name, 5, SMOKE_SECONDS, 0)
    assert result["failed"] == 0, result.get("problems")
    for metric in declared("end_to_end"):
        value = result["metrics"].get(metric)
        assert isinstance(value, (int, float)) and value > 0, (metric, value)
    line = json.loads(run.driver_line(result, SPEC["end_to_end"]))
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert sorted(line["metrics"]) == sorted(declared("end_to_end"))
    assert line["correct"] is True and line["attempted"] >= 1


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_emits_every_per_layer_metric(name):
    result = run.spawn(name, 5, SMOKE_SECONDS, 1)
    assert result["failed"] == 0, result.get("problems")
    emitted = set(result["metrics"]) - {"peak_rss_mb"}
    assert emitted == set(declared("per_layer"))
    assert result["metrics"]["telemetry.span_tiling_error_us"] < 1.0
    assert result["metrics"]["trace.overhead_ratio"] > 0
    spans = os.path.join(run.RESULTS, "spans_%s_seed5.jsonl" % name)
    with open(spans) as handle:
        header = json.loads(handle.readline())
    assert header["workload"] == name and header["spans"] > 0
    os.remove(spans)


def test_traced_runtime_forwards_the_whole_contract():
    from repro.runtime import Endpoint, Runtime, SimRuntime

    tracer = Tracer()
    tracer.enabled = True
    inner = SimRuntime(seed=3)
    runtime = TracedRuntime(inner, tracer)
    assert isinstance(runtime, Runtime)
    a, b = runtime.add_node("a"), runtime.add_node("b")
    assert isinstance(a, Endpoint)

    # Runtime side.
    assert runtime.trace is inner.trace
    assert runtime.telemetry is inner.telemetry
    assert runtime.sim is inner.sim and runtime.net is inner.net
    assert getattr(runtime, "loop", None) is None   # absent stays absent
    assert runtime.endpoint("a") is a
    assert sorted(runtime.node_ids()) == ["a", "b"]
    assert runtime.alive("a") and runtime.component_of("a") == ["a", "b"]
    runtime.emit("net.error", {"error": "probe"})
    assert inner.trace.count("net.error") == 1

    # Endpoint side: identity, clock, randomness, telemetry.
    assert (a.node_id, a.alive, a.incarnation) == ("a", True, 0)
    assert a.now == inner.now == runtime.now
    assert a.rng is inner.endpoint("a").rng
    assert a.telemetry is inner.telemetry
    a.emit("net.error", {"error": "probe"})
    assert inner.trace.count("net.error") == 2

    # Datagrams and timers go through, and are timed.
    received, fired = [], []
    b.bind("probe", lambda src, payload, size: received.append(
        (src, bytes(payload), size)))
    assert a.send("b", "probe", b"one")
    a.broadcast("probe", b"two", include_self=False)
    a.timer(0.01, lambda: fired.append(a.now), "probe")
    a.timer(0.01, lambda: fired.append("cancelled"), "probe").cancel()
    runtime.run_for(0.1)
    assert received == [("a", b"one", 3), ("a", b"two", 3)]
    assert len(fired) == 1 and fired[0] == pytest.approx(0.01)
    assert tracer.calls("send") == 2
    assert tracer.calls("handler.probe") == 2
    assert tracer.calls("timer") == 1
    assert tracer.counts["timer.armed"] == 2
    assert tracer.top_level_s > 0
    b.unbind("probe")
    a.send("b", "probe", b"three")
    runtime.run_for(0.1)
    assert len(received) == 2

    # Lifecycle and fault injection.
    events = []
    b.on_crash(lambda node: events.append("crash"))
    b.on_recover(lambda node: events.append("recover"))
    runtime.crash("b")
    assert not b.alive and not runtime.alive("b")
    runtime.recover("b")
    assert b.alive and b.incarnation == 1
    b.crash()
    b.recover()
    assert events == ["crash", "recover", "crash", "recover"]
    runtime.partition([["a"], ["b"]])
    assert runtime.component_of("a") == ["a"]
    runtime.merge()
    assert runtime.component_of("a") == ["a", "b"]

    # wait_for resolves a repro Future through the proxy.
    from repro.orb import Future
    future = Future()
    a.timer(0.01, lambda: future.set_result(42))
    assert runtime.wait_for(future, timeout=1.0) == 42
    runtime.close()


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    import shutil
    import subprocess

    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), str(tmp_path))
    shutil.copytree(HERE, str(tmp_path / "benchmarks" / "perf"),
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    finished = subprocess.run(
        SPEC["command"] + ["--workload", "echo_sim", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        timeout=60)
    assert finished.returncode != 0
    assert b"{" not in finished.stdout
