"""Synthesis experiment mode: synthesized-vs-builtin sweep + tuner adoption."""

import json

import pytest

from repro.core.algorithms import registered_algorithms
from repro.experiments import ALL_FIGURES, fig_synth
from repro.experiments.__main__ import main as cli_main
from repro.experiments.fig_synth import as_json, as_table, run_synth
from repro.netsim.units import KB, MB


@pytest.fixture(scope="module")
def registry_before():
    """The algorithm registry as the sweep found it."""
    return registered_algorithms()


@pytest.fixture(scope="module")
def synth_results(registry_before):
    return run_synth(
        sizes=(64 * KB, 16 * MB),
        static_iters=2,
        tune_rounds=24,
        tail=4,
    )


def test_synth_registered_as_experiment_mode():
    assert "synth" in ALL_FIGURES
    assert hasattr(ALL_FIGURES["synth"], "main")


def test_sweep_covers_both_fabrics(synth_results):
    assert [r.fabric for r in synth_results] == ["testbed", "two_region"]
    for result in synth_results:
        assert result.world == 8
        assert result.synthesized  # the search emitted a pareto front
        assert len(result.points) == 2


def test_synth_reproduces(synth_results):
    assert fig_synth.check(synth_results) == []


def test_run_synth_cleans_up_the_registry(registry_before, synth_results):
    assert registered_algorithms() == registry_before


def test_synth_table_and_json_rendering(synth_results):
    table = as_table(synth_results)
    assert table[0][0] == "Fabric"
    assert len(table) == 1 + 2 * 2  # header + fabrics x sizes
    payload = as_json(synth_results)
    assert json.dumps(payload)  # JSON-serializable end to end
    assert payload["fabrics"][1]["tuned"]["algorithm"] == synth_results[1].tuned.algorithm


def test_synth_main_writes_json(tmp_path, capsys):
    assert cli_main(["synth", "--out", str(tmp_path)]) == 0
    stdout = capsys.readouterr().out
    assert "Synthesis" in stdout
    assert "adopted_synth" in stdout
    payload = json.loads((tmp_path / "synth.json").read_text())
    assert len(payload["fabrics"]) == 2
