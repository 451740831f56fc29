"""Which functions under ``src/`` does the gated traffic reach?

Tier-1 is the wrong yardstick for dead code: a mechanism whose own unit
tests call it counts as reached.  This script asks what the *gated*
traffic runs instead.  Each job runs in a fresh spawned worker under a
``sys.setprofile`` call hook, which records every code object entered:

- ``sweep``: E12-sim sweep seeds at ``bench_e12_chaos_oltp.SWEEP_SCALE``
  (the campaign ``tests/test_campaign_sweep.py`` and ``fingerprints.py``
  run);
- ``e12``: full-scale E12-sim seed 0;
- ``perf``: each ``BENCHMARK.json`` workload, in-process through
  ``perf_workloads.measured_pass``;
- ``bench``: each ``benchmarks/bench_*.py`` in smoke mode
  (``BENCH_SMOKE=1``), through its ``main()`` or, when it has none, its
  ``test_*`` functions with a pass-through ``benchmark`` fixture (the hook
  is lost under pytest).  Their result tables go to a temporary
  directory, never to ``benchmarks/results/``.

It prints the functions (``def`` statements, nested ones included) that
no job reached, by module with their line counts, and ``--json`` writes
the same as JSON.

Profiling slows the real-socket runs about 10x, so timing-dependent
socket paths (the representative's token pacing, ``_pace_token``, for
one) run less often than unprofiled and under-report.  The defaults take
about 9 minutes on 2 x86_64 cores, which is why this is not part of CI;
``benchmarks/test_reach_smoke.py`` runs a one-seed, one-workload plan.

    PYTHONPATH=src python benchmarks/reach.py --json reach.json
    PYTHONPATH=src python benchmarks/reach.py --seeds 0-3 --workloads echo_sim \\
        --benches none --no-full-e12 --seconds 1
"""

import argparse
import ast
import glob
import json
import multiprocessing
import os
import sys
import tempfile
import time

from fingerprints import parse_seeds

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PERF = os.path.join(HERE, "perf")
WORKLOADS = ("echo_rt", "bulk_rt", "fanin_rt", "kv_rw_rt", "failover_rt",
             "echo_sim")


def bench_names():
    """Every ``benchmarks/bench_<name>.py``, as ``<name>``."""
    return tuple(sorted(
        os.path.basename(path)[len("bench_"):-len(".py")]
        for path in glob.glob(os.path.join(HERE, "bench_*.py"))))


# ----------------------------------------------------------------------
# The universe: every function defined under src/
# ----------------------------------------------------------------------

def functions(src=SRC):
    """``{(module path, first line): (qualified name, line count)}``.

    The first line is the first decorator's when there is one, which is
    what a code object's ``co_firstlineno`` reports.
    """
    found = {}
    for folder, _dirs, files in os.walk(src):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(folder, name)
            with open(path) as handle:
                tree = ast.parse(handle.read(), path)
            _collect(tree, os.path.relpath(path, src), "", found)
    return found


def _collect(node, module, prefix, found):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([child.lineno] + [decorator.lineno for decorator
                                          in child.decorator_list])
            qualname = prefix + child.name
            found[(module, first)] = (qualname, child.end_lineno - first + 1)
            _collect(child, module, qualname + ".", found)
        elif isinstance(child, ast.ClassDef):
            _collect(child, module, prefix + child.name + ".", found)
        else:
            _collect(child, module, prefix, found)


# ----------------------------------------------------------------------
# One job, in a worker
# ----------------------------------------------------------------------

class _PassThrough:
    """Stands in for pytest-benchmark's fixture: run the function once."""

    def pedantic(self, function, args=(), kwargs=None, **_options):
        return function(*args, **(kwargs or {}))


def _run_sweep(seed):
    import bench_e12_chaos_oltp as e12

    with e12.sweep_scale():
        e12.run_sim(seed=seed)


def _run_e12(seed):
    import bench_e12_chaos_oltp as e12

    e12.run_sim(seed=seed)


def _run_perf(name, seconds):
    import perf_workloads

    perf_workloads.measured_pass(perf_workloads.WORKLOADS[name], seed=1,
                                 seconds=seconds)


def _run_bench(name):
    import importlib

    module = importlib.import_module("bench_" + name)
    if hasattr(module, "main"):
        module.main([])
        return
    for attribute in sorted(vars(module)):
        if attribute.startswith("test_"):
            getattr(module, attribute)(_PassThrough())


def trace_job(job):
    """Run one job under the call hook; returns ``(job, [(module, line)])``."""
    os.environ["BENCH_SMOKE"] = "1"
    for path in (SRC, HERE, PERF):
        if path not in sys.path:
            sys.path.insert(0, path)
    with tempfile.TemporaryDirectory(prefix="reach-") as scratch:
        import repro.bench.harness as harness

        harness.results_dir = lambda: scratch
        seen = _traced(job)
    prefix = os.path.realpath(SRC) + os.sep
    reached = set()
    for code in seen:
        filename = os.path.realpath(code.co_filename)
        if filename.startswith(prefix):
            reached.add((os.path.relpath(filename, SRC), code.co_firstlineno))
    return job, sorted(reached)


def _traced(job):
    """Run ``job`` with the hook set; returns the code objects entered."""
    import threading

    kind, *args = job
    run = {"sweep": _run_sweep, "e12": _run_e12, "perf": _run_perf,
           "bench": _run_bench}[kind]
    seen = set()

    def hook(frame, event, _arg):
        if event == "call":
            seen.add(frame.f_code)

    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        run(*args)
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    return seen


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------

def plan(seeds=range(56), full_e12=True, workloads=WORKLOADS, seconds=3.0,
         benches=None):
    """The job list: sweep seeds, full-scale E12, workloads, benches
    (``None``: every bench)."""
    if benches is None:
        benches = bench_names()
    jobs = [("sweep", seed) for seed in seeds]
    if full_e12:
        jobs.append(("e12", 0))
    jobs += [("perf", name, seconds) for name in workloads]
    jobs += [("bench", name) for name in benches]
    return jobs


def reach(jobs, processes=2):
    """Run ``jobs`` on fresh workers; returns the report dict."""
    universe = functions()
    reached = set()
    context = multiprocessing.get_context("spawn")
    with context.Pool(processes, maxtasksperchild=1) as pool:
        for _job, keys in pool.imap_unordered(trace_job, jobs):
            reached.update(tuple(key) for key in keys)
    unreached = {}
    for (module, line), (name, lines) in sorted(universe.items()):
        if (module, line) not in reached:
            unreached.setdefault(module, []).append([name, line, lines])
    return {
        "jobs": [list(job) for job in jobs],
        "total": len(universe),
        "reached": len(universe) - sum(map(len, unreached.values())),
        "unreached_lines": sum(entry[2] for entries in unreached.values()
                               for entry in entries),
        "unreached": unreached,
    }


def render(report):
    lines = []
    for module, entries in sorted(report["unreached"].items()):
        lines.append("%s  (%d functions, %d lines)" % (
            module, len(entries), sum(entry[2] for entry in entries)))
        for name, line, count in entries:
            lines.append("    %-50s line %4d  %3d lines" % (name, line, count))
    lines.append("reached %d of %d functions; %d unreached, %d lines" % (
        report["reached"], report["total"],
        report["total"] - report["reached"], report["unreached_lines"]))
    return "\n".join(lines)


def _names(spec, choices):
    if spec == "none":
        return ()
    if spec == "all":
        return choices
    names = tuple(part for part in spec.split(",") if part)
    unknown = sorted(set(names) - set(choices))
    if unknown:
        raise SystemExit("unknown: %s (choose from %s)"
                         % (", ".join(unknown), ", ".join(choices)))
    return names


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-55",
                        help="sweep seeds, e.g. 0-55 or 2,9 or none")
    parser.add_argument("--full-e12", action=argparse.BooleanOptionalAction,
                        default=True, help="full-scale E12-sim seed 0")
    parser.add_argument("--workloads", default="all",
                        help="comma list of BENCHMARK.json workloads, "
                             "all or none")
    parser.add_argument("--seconds", type=float, default=3.0,
                        help="measured window per workload (default 3)")
    parser.add_argument("--benches", default="all",
                        help="comma list of bench names (e1, e12, a1, ...), "
                             "all or none")
    parser.add_argument("--processes", type=int, default=2,
                        help="worker processes (default 2)")
    parser.add_argument("--json", help="write the report here")
    options = parser.parse_args(argv)
    seeds = () if options.seeds == "none" else parse_seeds(options.seeds)
    jobs = plan(seeds, options.full_e12,
                _names(options.workloads, WORKLOADS), options.seconds,
                _names(options.benches, bench_names()))
    started = time.monotonic()
    report = reach(jobs, options.processes)
    print(render(report))
    print("%d jobs in %.0f s" % (len(jobs), time.monotonic() - started))
    if options.json:
        with open(options.json, "w") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
