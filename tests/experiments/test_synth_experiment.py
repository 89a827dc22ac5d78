"""Synthesis experiment mode: synthesized-vs-builtin sweep + tuner adoption."""

import json

import pytest

from repro.core.algorithms import registered_algorithms
from repro.experiments import ALL_FIGURES
from repro.experiments.fig_synth import (
    OUT_ENV,
    as_json,
    as_table,
    run_synth,
)
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


def test_synthesized_schedule_wins_on_the_wan_fabric(synth_results):
    """The ISSUE acceptance bar: on >= 1 topology a synthesized schedule
    strictly beats the best built-in at some message size (measured on
    the flow data plane, not just predicted)."""
    two_region = synth_results[1]
    assert any(p.synth_wins for p in two_region.points)
    bandwidth_point = two_region.points[-1]  # 16MB
    assert bandwidth_point.synth_wins
    assert bandwidth_point.speedup > 1.5  # ~4x in practice
    assert bandwidth_point.synth_label.startswith("synth:")


def test_tuner_adopts_synth_through_barrier(synth_results):
    tuned = synth_results[1].tuned
    assert tuned is not None
    assert tuned.adopted_synth
    assert tuned.retunes > 0
    assert tuned.barrier_only
    assert tuned.inconsistent == 0
    assert tuned.tail_mean < tuned.first


def test_run_synth_cleans_up_the_registry(registry_before, synth_results):
    assert registered_algorithms() == registry_before


def test_synth_table_and_json_rendering(synth_results):
    table = as_table(synth_results)
    assert table[0][0] == "Fabric"
    assert len(table) == 1 + 2 * 2  # header + fabrics x sizes
    payload = as_json(synth_results)
    assert json.dumps(payload)  # JSON-serializable end to end
    two_region = payload["fabrics"][1]
    assert two_region["tuned"]["adopted_synth"] is True
    assert two_region["tuned"]["inconsistent"] == 0


def test_synth_main_writes_json(tmp_path, monkeypatch, capsys):
    out = tmp_path / "synth.json"
    monkeypatch.setenv(OUT_ENV, str(out))
    ALL_FIGURES["synth"].main(tune_rounds=10, static_iters=1)
    stdout = capsys.readouterr().out
    assert "Synthesis" in stdout
    assert "adopted_synth" in stdout
    payload = json.loads(out.read_text())
    assert len(payload["fabrics"]) == 2
