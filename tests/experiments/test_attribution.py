"""Attribution experiment at reduced scale: the setup-1 cells (paper
Fig. 8's leftmost mix) under MCCS+FFA and ECMP reproduce (``check``).
The full grid runs in CI (``python -m repro.experiments attribution``).

The reduced grid's ``attribution`` and ``flight`` artifacts are held to
golden files byte for byte: every graded report, ledger and flight-dump
tree (flows, rate segments, bottlenecks, co-tenants) the causal tracer
rendered when they were captured.  They are the same under any
``PYTHONHASHSEED``.
"""

import json
from pathlib import Path

import pytest

from repro.experiments import fig_attribution

DATA = Path(__file__).resolve().parent / "data"


@pytest.fixture(scope="module")
def grid():
    return fig_attribution.run_attribution(setups=("setup1",), rounds=3)


def test_attribution_reproduces(grid):
    assert fig_attribution.check(grid) == []


def artifact(payload):
    """The text ``report.write_json`` writes for ``payload``."""
    return json.dumps(payload, indent=2) + "\n"


def test_attribution_artifact_matches_golden(grid):
    payload = {"results": [r.to_dict() for r in grid]}
    golden = (DATA / "golden_attribution_setup1.json").read_text()
    assert artifact(payload) == golden


def test_flight_artifact_matches_golden(grid):
    contended = next(
        r for r in grid if (r.setup, r.system) == ("setup1", "mccs_noffa")
    )
    flight = contended.telemetry.flight
    flight.trigger("manual", 0.0, source="fig_attribution")
    golden = (DATA / "golden_flight_setup1.json").read_text()
    assert artifact(flight.to_dict()) == golden
