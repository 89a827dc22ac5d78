"""Autotune experiment mode + the configurable §6.2 datapath latency."""

import json

import pytest

from repro.collectives.types import Collective
from repro.experiments import ALL_FIGURES
from repro.experiments.fig_autotune import (
    OUT_ENV,
    as_json,
    as_table,
    run_autotune,
)
from repro.netsim.units import KB, MB


@pytest.fixture(scope="module")
def autotune_result():
    return run_autotune(
        sizes=(64 * KB, 64 * MB),
        static_iters=2,
        tune_rounds=20,
        tail=4,
    )


def test_autotune_registered_as_experiment_mode():
    assert "autotune" in ALL_FIGURES
    assert hasattr(ALL_FIGURES["autotune"], "main")


def test_tuned_matches_best_static_on_both_regimes(autotune_result):
    """The ISSUE acceptance bar: the online tuner converges to a strategy
    at least as good as the best static choice on >= 2 size regimes."""
    assert len(autotune_result.regimes) == 2
    for regime in autotune_result.regimes:
        assert regime.converged, (
            f"{regime.size}: tail {regime.tuned_tail_mean} vs "
            f"best static {regime.best_static}"
        )
        assert regime.retunes > 0


def test_regimes_have_different_static_winners(autotune_result):
    small, large = autotune_result.regimes
    small_label, _ = small.best_static
    large_label, _ = large.best_static
    assert small_label != large_label
    assert large_label.startswith("ring")


def test_all_retunes_went_through_the_barrier(autotune_result):
    for regime in autotune_result.regimes:
        assert regime.barrier_only
        assert regime.inconsistent == 0


def test_autotune_table_and_json_rendering(autotune_result):
    table = as_table(autotune_result)
    assert table[0][0] == "Size"
    assert len(table) == 3
    assert all(row[-1] == "yes" for row in table[1:])
    payload = as_json(autotune_result)
    assert payload["kind"] == Collective.ALL_REDUCE.value
    assert json.dumps(payload)  # JSON-serializable end to end


def test_autotune_main_writes_json(tmp_path, monkeypatch, capsys):
    out = tmp_path / "autotune.json"
    monkeypatch.setenv(OUT_ENV, str(out))
    ALL_FIGURES["autotune"].main(tune_rounds=8, static_iters=1)
    assert "Autotune" in capsys.readouterr().out
    payload = json.loads(out.read_text())
    assert len(payload["regimes"]) == 2


def test_autotune_run_retunes_only_through_the_barrier():
    result = run_autotune(
        sizes=(64 * KB,), static_iters=1, tune_rounds=10, tail=3
    )
    regime = result.regimes[0]
    assert regime.barrier_only and regime.inconsistent == 0


def test_pinned_datapath_tag_makes_measurements_history_free():
    """The experiment's measurements must not depend on how many
    communicators the process created before (the ECMP discriminator
    normally embeds a process-global comm id): same tag, same duration."""
    from repro.experiments.fig_autotune import _measure_static
    from repro.experiments.setups import single_app_gpus

    def measure():
        return _measure_static(
            "8gpu",
            Collective.ALL_REDUCE,
            64 * MB,
            algorithm="ring",
            channels=2,
            ring=tuple(range(8)),
            iters=1,
        )

    first = measure()
    # advance the process-global comm counter, as an unrelated test would
    from repro.cluster.specs import testbed_cluster
    from repro.core.deployment import MccsDeployment

    burn = MccsDeployment(testbed_cluster())
    for _ in range(3):
        burn.create_communicator(
            "B", single_app_gpus(burn.cluster, "4gpu")
        )
    assert measure() == first


# -- fig06 datapath threading (§6.2) -------------------------------------------
def mccs_duration(size, datapath_latency):
    """One MCCS (FFA route-pinned, so ECMP-noise-free) collective."""
    from repro.experiments.fig06_single_app import _issue_fn

    issue, run = _issue_fn("mccs", "8gpu", 0, datapath_latency)
    durations = []
    issue(Collective.ALL_REDUCE, size, durations.append)
    run()
    return durations[0]


def test_fig06_datapath_latency_is_configurable():
    # the override lands additively: default (65us) sits exactly between
    # a free hop and a 200us hop
    free = mccs_duration(512 * KB, 0.0)
    default = mccs_duration(512 * KB, None)
    slow = mccs_duration(512 * KB, 200e-6)
    assert default - free == pytest.approx(65e-6, rel=1e-6)
    assert slow - free == pytest.approx(200e-6, rel=1e-6)
    from repro.cluster.specs import testbed_cluster
    from repro.core.deployment import MccsDeployment

    with pytest.raises(ValueError):
        MccsDeployment(testbed_cluster(), datapath_latency=-1e-6)


def test_fig06_datapath_crossover_small_hurts_large_does_not():
    # §6.2: the shim->service hop explains the small-size loss and
    # washes out at large sizes — the Figure 6 crossover shape
    small_penalty = mccs_duration(512 * KB, 65e-6) / mccs_duration(
        512 * KB, 0.0
    )
    large_penalty = mccs_duration(128 * MB, 65e-6) / mccs_duration(
        128 * MB, 0.0
    )
    assert small_penalty > 1.3
    assert large_penalty < 1.01
