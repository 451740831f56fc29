"""Byte-identity fingerprints of the E12-sim campaign sweep.

For each seed, at the sweep's pinned scale
(:data:`bench_e12_chaos_oltp.SWEEP_SCALE`, the same campaign
``tests/test_campaign_sweep.py`` runs), one run of the gatewayed OLTP
application under its chaos campaign yields:

- ``failing``: the invariants the run violated (sorted names);
- ``jsonl``: sha256 of the flight recorder's JSONL export;
- ``records``: sha256 of every trace record (time, category, detail);
- ``counters``: sha256 of the trace counters;
- ``bytes``: sha256 of the trace byte counters;
- ``counts``: how often each ``--count`` trace category was emitted.

A change meant to preserve behaviour must reproduce all four hashes on
every seed; a change that moves behaviour shows exactly which seeds it
moved.  Each seed runs in a fresh worker process with
``PYTHONHASHSEED=0``, so set-valued trace details print alike on both
trees.

    PYTHONPATH=src python benchmarks/fingerprints.py --seeds 0-55 --json fp.json
    PYTHONPATH=src python benchmarks/fingerprints.py --seeds 16-55 --check
    PYTHONPATH=src python benchmarks/fingerprints.py --count ft.merge.stall
    python benchmarks/fingerprints.py --compare parent.json change.json

``--check`` exits non-zero when any seed violates an invariant;
``--compare`` prints the failing sets of two saved runs and the seeds
whose fingerprints differ.
"""

import argparse
import functools
import hashlib
import json
import multiprocessing
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
KEYS = ("jsonl", "records", "counters", "bytes")


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def fingerprint(seed, counted=()):
    """Run one sweep seed; returns ``(seed, {failing, jsonl, ...})``."""
    sys.path.insert(0, HERE)
    import bench_e12_chaos_oltp as e12

    systems = []
    build = e12.EternalSystem

    def keep(*args, **kwargs):
        systems.append(build(*args, **kwargs))
        return systems[-1]

    e12.EternalSystem = keep
    try:
        with e12.sweep_scale():
            _campaign, report, _slo = e12.run_sim(seed=seed)
    finally:
        e12.EternalSystem = build
    system = systems[-1]
    trace = system.runtime.trace
    records = "\n".join(repr((r.time, r.category, r.detail))
                        for r in trace.records)
    return seed, {
        "failing": sorted({v.invariant for v in report.violations}),
        "jsonl": _sha(system.telemetry.recorder.export_jsonl()),
        "records": _sha(records),
        "counters": _sha(repr(sorted(trace.counters.items()))),
        "bytes": _sha(repr(sorted(trace.byte_counters.items()))),
        "counts": {category: trace.count(category) for category in counted},
    }


def parse_seeds(spec):
    """``"0-55"`` or ``"2,9,13"`` (or a mix) -> sorted seed list."""
    seeds = set()
    for part in spec.split(","):
        low, _, high = part.partition("-")
        seeds.update(range(int(low), int(high or low) + 1))
    return sorted(seeds)


def run(seeds, jobs, counted=()):
    """Fingerprint ``seeds`` on ``jobs`` fresh worker processes."""
    os.environ["PYTHONHASHSEED"] = "0"
    context = multiprocessing.get_context("spawn")
    work = functools.partial(fingerprint, counted=tuple(counted))
    with context.Pool(jobs, maxtasksperchild=1) as pool:
        results = dict(pool.imap_unordered(work, seeds))
    return {str(seed): results[seed] for seed in seeds}


def failing_set(fingerprints):
    return {int(seed): entry["failing"]
            for seed, entry in fingerprints.items() if entry["failing"]}


def _load(path):
    with open(path) as handle:
        return json.load(handle)["seeds"]


def compare(before, after):
    """Seeds whose fingerprints differ, as ``{seed: [keys that moved]}``."""
    moved = {}
    for seed in sorted(set(before) & set(after), key=int):
        keys = [key for key in KEYS if before[seed][key] != after[seed][key]]
        if keys:
            moved[int(seed)] = keys
    return moved


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-55",
                        help="seed list, e.g. 0-55 or 2,9,13 (default 0-55)")
    parser.add_argument("--jobs", type=int, default=2,
                        help="worker processes (default 2)")
    parser.add_argument("--count", action="append", default=[],
                        metavar="CATEGORY",
                        help="also record this trace category's count "
                             "per seed (repeatable)")
    parser.add_argument("--json", help="write {seed: fingerprint} here")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 when any seed violates an invariant")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"),
                        help="compare two saved --json runs instead")
    options = parser.parse_args(argv)
    if options.compare:
        before, after = (_load(path) for path in options.compare)
        print("failing before: %s" % failing_set(before))
        print("failing after:  %s" % failing_set(after))
        moved = compare(before, after)
        print("moved: %s" % (moved or "none"))
        return 0
    seeds = parse_seeds(options.seeds)
    started = time.monotonic()
    fingerprints = run(seeds, options.jobs, options.count)
    failing = failing_set(fingerprints)
    print("%d seeds in %.0f s; failing: %s"
          % (len(seeds), time.monotonic() - started, failing or "none"))
    for category in options.count:
        print("%s: %s" % (category, {
            int(seed): entry["counts"][category]
            for seed, entry in fingerprints.items()
            if entry["counts"][category]} or "none"))
    if options.json:
        with open(options.json, "w") as handle:
            json.dump({"seeds": fingerprints}, handle, indent=1,
                      sort_keys=True)
            handle.write("\n")
    return 1 if options.check and failing else 0


if __name__ == "__main__":
    sys.exit(main())
