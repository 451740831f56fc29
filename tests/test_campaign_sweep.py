"""The 16-seed crash+partition campaign sweep, pinned as a regression test.

Each seed runs the E12 campaign (crashes with recovery, a partition with
remerge, a loss burst, a latency spike, a slow node) against the
gatewayed OLTP application at a reduced, tier-1-viable scale
(``bench_e12_chaos_oltp.SWEEP_SCALE``: a few seconds of virtual time per
seed instead of E12's full campaign), then checks exactly-once execution
and replica convergence.  Every seed passes: a regression in
replication, remerge, or the read path shows up here first.

The scale is pinned explicitly (not BENCH_SMOKE): campaign generation
derives from the spec's duration and the traffic from rate x duration,
so both are part of each seed's identity.  ``benchmarks/fingerprints.py``
runs the same campaign over a wider seed range (CI: seeds 16-55) and
records per-seed fingerprints for byte-identity proofs.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "benchmarks"))

import bench_e12_chaos_oltp as e12  # noqa: E402

SEEDS = range(16)

# Seeds expected to fail at the pinned scale, with the reason (each becomes
# a strict xfail, which trips the day the fix lands).  Which seeds trip is
# decided by microseconds: any change to the size of a frame or to when the
# token moves re-times every churn-heavy schedule.  The last one, seed 2,
# was a replica-convergence failure on the catalog group (WARM_PASSIVE).
# s5, cut off with one gateway, executed one `reserve` alone; its state
# update was still in its send queue when the ring re-formed, and Totem
# ordered it in the merged ring.  There the merge-stalled primary-side
# hosts s4 and s6 applied it: both histories stood at the same operation
# count, so the position looked contiguous.  s4 then suppressed s5's
# fulfillment of that operation as a duplicate and never executed it; s6
# re-adopted s4's capture from before the operation, so its copy stayed
# executing forever.  A stalled replica now refuses
# passive pushes from the other side until that host's RECONCILED marker
# has been delivered (reconciliation.Merge.fences).
FAILING_SEEDS = {}

# Seeds whose schedules trigger a pathological blowup, skipped with the
# reason.  Seed 5 used to live here: a cross-ring membership-churn storm
# (every Join broadcast hammering both rings' co-hosted endpoints) cost
# ~345 s and ~3 GB RSS at this scale.  Paced, mostly-unicast Join resends
# beyond the gather burst (totem/membership.py: JOIN_BURST,
# JOIN_MIN_SPACING, JOIN_DISCOVERY_PERIOD) and the trace-retention cap
# collapsed it to a normal run.
SLOW_SEEDS = {}


@pytest.fixture()
def pinned_scale():
    # e12.SWEEP_SCALE, shared with benchmarks/fingerprints.py.  Changing it
    # changes every seed's fault schedule and traffic interleaving.
    with e12.sweep_scale():
        yield


def _seed_params():
    for seed in SEEDS:
        if seed in SLOW_SEEDS:
            yield pytest.param(
                seed, marks=pytest.mark.skip(reason=SLOW_SEEDS[seed])
            )
        elif seed in FAILING_SEEDS:
            yield pytest.param(
                seed,
                marks=pytest.mark.xfail(
                    strict=True, reason=FAILING_SEEDS[seed]
                ),
            )
        else:
            yield pytest.param(seed)


@pytest.mark.slow
@pytest.mark.parametrize("seed", _seed_params())
def test_campaign_seed(pinned_scale, seed):
    _campaign, report, _slo = e12.run_sim(seed=seed)
    assert report.ok, "invariants violated: %s" % sorted(
        {violation.invariant for violation in report.violations}
    )
