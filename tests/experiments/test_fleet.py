"""The fleet experiment reproduces (``check``), and its report is
deterministic and JSON-serializable."""

import json
from dataclasses import asdict

import pytest

from repro.experiments import ALL_FIGURES, fig_fleet
from repro.experiments.fig_fleet import FleetReport, run_fleet


@pytest.fixture(scope="module")
def fleet_report():
    # The full 1000-tenant scenario: the claim is about a fleet that size,
    # and it runs about as fast as a 48-tenant miniature.
    return run_fleet()


def test_fleet_registered_as_experiment_mode():
    assert "fleet" in ALL_FIGURES
    assert hasattr(ALL_FIGURES["fleet"], "main")


def test_fleet_reproduces(fleet_report):
    assert fig_fleet.check(fleet_report) == []


def test_report_is_json_serializable(fleet_report):
    blob = json.dumps(asdict(fleet_report))
    parsed = json.loads(blob)
    assert parsed["num_tenants"] == fleet_report.num_tenants
    assert {row["qos"] for row in parsed["classes"]} == {"high", "normal", "low"}


def test_seed_determinism():
    a = run_fleet(num_tenants=16, seed=7, base_rate=20.0, poison=1,
                  storms=2, horizon=0.2)
    b = run_fleet(num_tenants=16, seed=7, base_rate=20.0, poison=1,
                  storms=2, horizon=0.2)
    assert isinstance(a, FleetReport)
    assert asdict(a) == asdict(b)
