"""Smoke test of ``reach.py``: one sweep seed plus ``echo_sim`` for 0.5 s.

    PYTHONPATH=src python -m pytest -q benchmarks/test_reach_smoke.py
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import reach  # noqa: E402


@pytest.mark.slow
def test_reach_reports_what_a_small_plan_runs():
    jobs = reach.plan(seeds=[0], full_e12=False, workloads=["echo_sim"],
                      seconds=0.5, benches=[])
    report = reach.reach(jobs, processes=1)
    universe = reach.functions()
    assert report["total"] == len(universe)
    unreached = {(module, entry[0])
                 for module, entries in report["unreached"].items()
                 for entry in entries}
    assert len(universe) - len(unreached) == report["reached"] > 300
    # Both jobs execute replicated operations ...
    assert ("repro/replication/requests.py",
            "RequestProtocol._on_executed") not in unreached
    # ... and neither transfers state in chunks.
    assert ("repro/state/transfer.py",
            "IncrementalAssembler.add_frame") in unreached
    assert "reached %d of %d" % (report["reached"], report["total"]) \
        in reach.render(report)
