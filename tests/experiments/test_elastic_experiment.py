"""Elastic experiment: the ISSUE acceptance bars, kept in tier 1.

One seeded run of ``repro.experiments.fig_elastic`` must show, across at
least three grow -> drift -> shrink -> crash cycles:

* every membership change commits (grow and shrink reach ``done``),
* the final collective of every cycle is byte-exact for both tenants,
* the journal replays to the live control plane after all the churn,
* the witness tenant in the other region is untouched (zero blast
  radius: zero failures, baseline-identical completion count),
* at least one autotuner retune is attributed to a membership epoch.
"""

import json

import pytest

from repro.experiments.__main__ import main as cli_main
from repro.experiments.fig_elastic import run_elastic


@pytest.fixture(scope="module")
def report():
    return run_elastic(seed=0, cycles=3)


def test_three_cycles_commit(report):
    assert len(report.cycles) == 3
    for cyc in report.cycles:
        assert cyc.grow_state == "done"
        assert cyc.shrink_state == "done"
        assert cyc.drift_events > 0
    # Each cycle commits one grow + one shrink: epochs 2, 4, 6.
    assert [c.membership_epoch for c in report.cycles] == [2, 4, 6]
    assert report.membership_changes == 6


def test_byte_exact_after_every_cycle(report):
    assert report.bytes_exact
    for cyc in report.cycles:
        assert cyc.world_after == 4  # back to the pre-grow world


def test_journal_replays_clean_after_churn(report):
    assert report.journal_diff == []
    assert report.journal_records > 0
    assert report.service_crashes == 3
    assert report.service_restarts == 3


def test_witness_tenant_has_zero_blast_radius(report):
    assert report.witness_failed == 0
    assert report.witness_completed == report.witness_baseline_completed
    assert report.blast_radius_zero


def test_epoch_attributed_retune_happened(report):
    assert report.epoch_retunes >= 1


def test_main_asserts_bars_and_writes_artifact(tmp_path, capsys):
    assert cli_main(["elastic", "--out", str(tmp_path)]) == 0
    printed = capsys.readouterr().out
    assert "membership_changes=6" in printed
    payload = json.loads((tmp_path / "elastic.json").read_text())
    assert payload["experiment"] == "elastic"
    assert payload["reports"][0]["blast_radius_zero"] is True
