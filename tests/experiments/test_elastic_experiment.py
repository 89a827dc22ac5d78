"""Elastic experiment: one seeded three-cycle run reproduces (``check``)."""

import json

import pytest

from repro.experiments import fig_elastic
from repro.experiments.__main__ import main as cli_main


@pytest.fixture(scope="module")
def reports():
    return [fig_elastic.run_elastic(seed=0, cycles=3)]


def test_elastic_reproduces(reports):
    assert fig_elastic.check(reports) == []


def test_main_asserts_bars_and_writes_artifact(tmp_path, capsys):
    assert cli_main(["elastic", "--out", str(tmp_path)]) == 0
    assert "membership_changes=" in capsys.readouterr().out
    payload = json.loads((tmp_path / "elastic.json").read_text())
    assert payload["experiment"] == "elastic"
    assert len(payload["reports"]) == len(fig_elastic.SEEDS)
