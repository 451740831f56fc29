#!/usr/bin/env python3
"""The repo benchmark: one command, every metric by name.

By hand, from the root of the repo::

    python3 benchmarks/perf/run.py                    # timed pass, all workloads
    python3 benchmarks/perf/run.py --traced           # ... plus the per-layer pass
    python3 benchmarks/perf/run.py --workload echo_rt --seed 7 --seconds 5
    python3 benchmarks/perf/run.py --traced --json benchmarks/perf/results/baseline.json
    python3 benchmarks/perf/run.py --check            # the timed set twice, A/A

By the driver (one run, one JSON object on the last line of stdout)::

    python3 benchmarks/perf/run.py --workload W --seed N --seconds S --trace 0|1

Every workload runs in a fresh single-threaded subprocess under a
watchdog, so a wedged system under test costs one run, not the session.
Names, units and bounds come from ``BENCHMARK.json`` at the root.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SOURCE = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

#: Set-ups per timed run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: Metrics that belong to one workload.  The driver wants every
#: end-to-end metric from every workload, so these are declared per-layer
#: in BENCHMARK.json; ``--check`` still holds them to a bound.
CHECK_EXTRA = {"read_p50_us": 0.2, "failover_gap_ms": 0.1}

#: Must repeat exactly on the simulator (``--check``).
EXACT_ON_SIM = ("virt_p50_us",)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# Child: one workload, in this process
# ----------------------------------------------------------------------

def run_workload(name, seed, seconds, trace):
    """Measure one workload; returns the child's result dict."""
    import resource

    from perf_layers import layer_metrics
    from perf_metrics import end_to_end, per_layer, trace_counts
    from perf_workloads import WORKLOADS, measured_pass, median, set_up

    workload = WORKLOADS[name]
    benches, windows = [], []
    result = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": trace, "metrics": {}, "counts": {}}
    if not trace:
        setups = []
        for _ in range(SETUP_REPEATS - 1):
            bench, setup_s = set_up(workload, seed)
            bench.close()
            benches.append(bench)
            setups.append(setup_s)
        bench, window, setup_s = measured_pass(workload, seed, seconds)
        benches.append(bench)
        windows.append(window)
        setups.append(setup_s)
        metrics = end_to_end(workload, bench, window)
        metrics["setup_s"] = median(setups)
        result["counts"] = trace_counts(window)
    else:
        share = seconds / 3.0
        plain_bench, plain_window, _ = measured_pass(workload, seed, share)
        plain = end_to_end(workload, plain_bench, plain_window)
        bench, window, _ = measured_pass(workload, seed, share, traced=True)
        traced = end_to_end(workload, bench, window)
        benches += [plain_bench, bench]
        windows += [plain_window, window]
        metrics = per_layer(bench, window)
        metrics["trace.overhead_ratio"] = (
            traced["invoke_p50_ms"] / plain["invoke_p50_ms"]
            if traced["invoke_p50_ms"] and plain["invoke_p50_ms"] else None)
        for extra in ("failed_share", "read_p50_us", "failover_gap_ms",
                      "virt_p50_us"):
            metrics[extra] = plain[extra]
        layers = layer_metrics(SOURCE)
        result["notes"] = layers.pop("_notes", [])
        metrics.update(layers)
        os.makedirs(RESULTS, exist_ok=True)
        bench.tracer.dump(
            os.path.join(RESULTS, "spans_%s_seed%d.jsonl" % (name, seed)),
            {"workload": name, "seed": seed})
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    result["metrics"] = metrics
    result["attempted"] = sum(b.attempted for b in benches)
    result["problems"] = [p for b in benches for p in b.problems]
    result["failed"] = (
        sum(1 for w in windows for r in w.records if not r.ok)
        + len(result["problems"]))
    return result


# ----------------------------------------------------------------------
# Parent: subprocess per workload, watchdog, reporting
# ----------------------------------------------------------------------

def watchdog_seconds(seconds):
    return min(170.0, max(90.0, 3.0 * seconds + 30.0))


def spawn(name, seed, seconds, trace):
    """Run one workload in a fresh interpreter; never blocks past the watchdog.

    Returns the child's result dict, or one describing how it died.
    """
    command = [sys.executable, os.path.abspath(__file__), "--child",
               "--workload", name, "--seed", str(seed),
               "--seconds", repr(float(seconds)), "--trace", str(int(trace))]
    died = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
            "metrics": {"failed_share": 1.0}, "counts": {},
            "attempted": 1, "failed": 1}
    # String hashing is randomized per interpreter; left alone it reshuffles
    # every set and dict of the program and moved cpu_ms_per_op by +-4 %
    # between identical runs.  Pinned, the spread that is left is the
    # program's and the machine's.
    environment = dict(os.environ, PYTHONHASHSEED="0")
    try:
        finished = subprocess.run(
            command, stdout=subprocess.PIPE, timeout=watchdog_seconds(seconds),
            universal_newlines=True, env=environment)
    except subprocess.TimeoutExpired:
        died["problems"] = ["killed by the %.0f s watchdog"
                            % watchdog_seconds(seconds)]
        return died
    lines = finished.stdout.strip().splitlines()
    if finished.returncode != 0 or not lines:
        died["problems"] = ["workload process exited with code %d"
                            % finished.returncode]
        died["crashed"] = True
        return died
    return json.loads(lines[-1])


def units(spec):
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def show(result, unit_of, names=None):
    label = "traced" if result["trace"] else "timed"
    print("== %s  [%s, seed %d, %.1f s]  attempted %d, failed %d"
          % (result["workload"], label, result["seed"], result["seconds"],
             result["attempted"], result["failed"]))
    for problem in result.get("problems", []):
        print("   PROBLEM: %s" % problem)
    for note in result.get("notes", []):
        print("   note: %s" % note)
    metrics = result["metrics"]
    for name in (names or sorted(metrics)):
        value = metrics.get(name)
        text = "null" if value is None else "%.6g" % value
        print("   %-42s %14s %s" % (name, text, unit_of.get(name, "")))


def driver_line(result, declared):
    """The one JSON object the driver reads from the last line."""
    metrics = {}
    for metric in declared:
        value = result["metrics"].get(metric["name"])
        metrics[metric["name"]] = {
            # A metric that does not apply to this workload reads 0.
            "value": 0.0 if value is None else value,
            "unit": metric["unit"],
        }
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": max(1, int(result["attempted"])),
        "failed": int(result["failed"]),
        "metrics": metrics,
    })


def relative_difference(first, second):
    if first is None or second is None:
        return None if first is second else float("inf")
    if first == second:
        return 0.0
    return abs(first - second) / max(abs(first), abs(second))


def check(spec, names, seed, seconds):
    """Run the timed set twice on the same code; every pair within its bound."""
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    bounds.update(CHECK_EXTRA)
    passed = True
    print("%-12s %-22s %12s %12s %8s %6s" % (
        "workload", "metric", "run 1", "run 2", "diff", "bound"))
    for name in names:
        first = spawn(name, seed, seconds, 0)
        second = spawn(name, seed, seconds, 0)
        if first["failed"] or second["failed"]:
            print("%-12s FAIL: %s" % (
                name, first.get("problems", []) + second.get("problems", [])))
            passed = False
        rows = []
        for metric, bound in bounds.items():
            values = (first["metrics"].get(metric),
                      second["metrics"].get(metric))
            if values != (None, None):
                rows.append((metric, values, bound))
        if name.endswith("_sim"):
            exact = {metric: (first["metrics"].get(metric),
                              second["metrics"].get(metric))
                     for metric in EXACT_ON_SIM}
            exact.update(
                (metric, (first["counts"][metric],
                          second["counts"].get(metric)))
                for metric in sorted(first["counts"])
                if not metric.endswith("per_wall_s"))
            rows += [(metric, values, 0.0) for metric, values in exact.items()
                     if values != (None, None)]
        for metric, (one, two), bound in rows:
            difference = relative_difference(one, two)
            good = difference is not None and difference <= bound
            passed = passed and good
            print("%-12s %-22s %12s %12s %7.2f%% %5.0f%%  %s" % (
                name, metric[-22:], "%.6g" % one if one is not None else "null",
                "%.6g" % two if two is not None else "null",
                100.0 * (difference or 0.0), 100.0 * bound,
                "PASS" if good else "FAIL"))
    print("A/A check: %s" % ("all PASS" if passed else "FAILED"))
    return passed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="driver mode: 0 end-to-end, 1 per-layer")
    parser.add_argument("--traced", action="store_true",
                        help="also run the per-layer pass")
    parser.add_argument("--json", metavar="OUT")
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    options = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        print("benchmark: no program to measure: %s is missing"
              % os.path.join(SOURCE, "repro"), file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if options.workload is not None:
        if options.workload not in names:
            parser.error("unknown workload %r (have: %s)"
                         % (options.workload, ", ".join(names)))
        names = [options.workload]
    seconds = (options.seconds if options.seconds is not None
               else float(spec["run_seconds"]))

    if options.child:
        sys.path[:0] = [SOURCE, HERE]
        result = run_workload(options.workload, options.seed, seconds,
                              options.trace or 0)
        print(json.dumps(result))
        return 0

    if options.trace is not None:
        if options.workload is None:
            parser.error("--trace needs --workload")
        result = spawn(options.workload, options.seed, seconds, options.trace)
        declared = spec["per_layer"] if options.trace else spec["end_to_end"]
        if result.get("crashed"):
            print("benchmark: %s" % result["problems"][0], file=sys.stderr)
            return 1
        show(result, units(spec), [m["name"] for m in declared])
        print(driver_line(result, declared))
        return 0

    if options.check:
        return 0 if check(spec, names, options.seed, seconds) else 1

    unit_of = units(spec)
    report = {
        "meta": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "machine": platform.machine(), "seed": options.seed,
                 "seconds": seconds, "setup_repeats": SETUP_REPEATS},
        "timed": {}, "traced": {},
    }
    failed = 0
    for name in names:
        for trace in ((0, 1) if options.traced else (0,)):
            result = spawn(name, options.seed, seconds, trace)
            show(result, unit_of)
            failed += result["failed"]
            report["traced" if trace else "timed"][name] = {
                key: result.get(key) for key in
                ("metrics", "counts", "attempted", "failed", "problems")}
    if options.json:
        with open(options.json, "w") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
            handle.write("\n")
    print("benchmark: %s" % ("ok" if not failed else "%d FAILED" % failed))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
