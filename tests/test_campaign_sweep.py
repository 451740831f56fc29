"""The 16-seed crash+partition campaign sweep, pinned as a regression test.

ROADMAP's residual item tracks exactly-once violations under extreme
churn: some seeds of the E12 campaign still lose or duplicate
operations when a crash lands inside a remerge's fulfillment replay.
This test pins the sweep at a reduced, tier-1-viable scale (a few
seconds of virtual time per seed instead of E12's full campaign) so
the failing set is tracked empirically:

- passing seeds must stay green (a regression in replication,
  remerge, or the read path shows up here first);
- failing seeds are ``xfail(strict=True)`` — the day the
  reconciliation fix lands, those marks fail and must be removed.

The scale is pinned explicitly (not BENCH_SMOKE) so the failing set is
stable: campaign generation derives from the spec's duration and the
traffic from rate x duration, and both are part of the regression's
identity.  The failing seeds at THIS scale differ from the full-scale
E12 sweep (there, seeds 2 and 4 fail and seed 5 is impractically
slow); same bug class, different schedules.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "benchmarks"))

import bench_e12_chaos_oltp as e12  # noqa: E402

# The pinned sweep scale.  Changing any of these changes every seed's
# fault schedule and traffic interleaving — re-sweep and update
# FAILING_SEEDS if you touch them.
SCALE = {
    "RATE": 6,
    "TRAFFIC_DURATION": 2.0,
    "CAMPAIGN_DURATION": 2.0,
    "SETTLE": 4.0,
}

SEEDS = range(16)

# Empirically failing at the pinned scale (see module docstring).
# Which seeds trip is decided by microseconds: any change to the size of
# a frame or to when the token moves re-times every churn-heavy schedule.
# PR 15 (ack field, smaller captures) moved the pin 15 -> 9; PR 16 (one
# zero-hold token visit, idle hold at the representative) re-timed them
# again: seeds 9 and 31, the sole-copy crashes the parent tree failed on
# 0-55, pass, and the one seed of 0-55 that fails now is of the older
# kind this file was created for -- a crash inside a fulfillment replay.
FAILING_SEEDS = {
    2: "replica-convergence (catalog, WARM_PASSIVE): s5, cut off with one "
       "gateway under a 9 % loss burst, executes one `reserve` alone; at "
       "the remerge it adopts the primary side's capture, re-issues the "
       "operation as a fulfillment and crashes 15 ms later, inside the "
       "replay.  The primary s4 executes the replayed request when its "
       "merge stall is released and answers it, but no state update "
       "follows it to the backup s6, which ends one ledger entry short "
       "(ROADMAP: residual exactly-once violations under extreme churn)",
}

# Seeds whose schedules trigger a pathological blowup.  Seed 5 used to
# live here: a cross-ring membership-churn broadcast delivery storm
# (every Join broadcast hammered both rings' co-hosted endpoints at
# storm rates — net.deliver ~1.15M and totem.ring.mismatch ~386k per
# 30s of wall clock) cost ~345s / ~3 GB RSS at this scale.  The
# token-paced Join damping (`TotemConfig.join_damping`: paced,
# mostly-unicast Join resends beyond the gather burst) collapsed it to
# ~16s / ~110 MB, and the trace-retention cap bounds the RSS tail, so
# seed 5 runs normally again.
SLOW_SEEDS = {}


@pytest.fixture()
def pinned_scale():
    saved = {name: getattr(e12, name) for name in SCALE}
    for name, value in SCALE.items():
        setattr(e12, name, value)
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(e12, name, value)


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
