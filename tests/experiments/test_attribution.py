"""Attribution experiment: the ISSUE acceptance bar, kept in tier 1.

The full grid runs in CI (``python -m repro.experiments attribution``);
here one representative cell per system keeps the acceptance criteria —
component sums exact, attribution ≥ 90% against ground truth — from
regressing, and checks the FFA story the ledger must tell.
"""

import pytest

from repro.experiments.fig_attribution import run_attribution


@pytest.fixture(scope="module")
def grid():
    """setup1 (paper Fig. 8 leftmost mix) under MCCS+FFA and ECMP."""
    results = run_attribution(setups=("setup1",), rounds=3)
    return {r.system: r for r in results}


def test_component_sums_are_exact(grid):
    for result in grid.values():
        assert result.collectives > 0
        assert result.sum_ok_fraction == 1.0, (
            f"{result.system}: critical-path components do not sum to the "
            f"measured duration within 1% for "
            f"{result.collectives - result.sum_ok} collectives"
        )


def test_attribution_meets_acceptance_bar(grid):
    for result in grid.values():
        assert result.accuracy >= 0.9, (
            f"{result.system}: named the true bottleneck link and "
            f"interferer for only {result.accuracy:.0%} of collectives"
        )


def test_ffa_empties_the_interference_ledger(grid):
    """Setup 1 contention is ECMP's fault: FFA separates the tenants."""
    ffa_seconds = sum(
        s for row in grid["mccs"].ledger.values() for s in row.values()
    )
    ecmp_seconds = sum(
        s for row in grid["mccs_noffa"].ledger.values() for s in row.values()
    )
    assert ffa_seconds == 0.0
    assert ecmp_seconds > 0.0
