"""Autotune experiment mode + the configurable §6.2 datapath latency."""

import json
from functools import partial

import pytest

from repro.cluster.specs import testbed_cluster
from repro.collectives.types import Collective
from repro.experiments import ALL_FIGURES, fig_autotune
from repro.experiments.__main__ import main as cli_main
from repro.experiments.fig_autotune import as_json, as_table, run_autotune
from repro.experiments.setups import measure_static, single_app_gpus, system_issuers
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


def test_autotune_reproduces(autotune_result):
    assert fig_autotune.check(autotune_result) == []


def test_autotune_table_and_json_rendering(autotune_result):
    table = as_table(autotune_result)
    assert table[0][0] == "Size"
    assert len(table) == 3
    payload = as_json(autotune_result)
    assert payload["kind"] == Collective.ALL_REDUCE.value
    assert json.dumps(payload)  # JSON-serializable end to end


def test_autotune_main_writes_json(tmp_path, capsys):
    assert cli_main(["autotune", "--out", str(tmp_path)]) == 0
    assert "Autotune" in capsys.readouterr().out
    payload = json.loads((tmp_path / "autotune.json").read_text())
    assert len(payload["regimes"]) == 2


def test_pinned_datapath_tag_makes_measurements_history_free():
    """The experiment's measurements must not depend on how many
    communicators the process created before (the ECMP discriminator
    normally embeds a process-global comm id): same tag, same duration."""

    def measure():
        return measure_static(
            testbed_cluster,
            partial(single_app_gpus, setup="8gpu"),
            Collective.ALL_REDUCE,
            64 * MB,
            algorithm="ring",
            channels=2,
            ring=tuple(range(8)),
            iters=1,
            tag="autotune",
        )

    first = measure()
    # advance the process-global comm counter, as an unrelated test would
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
    cluster = testbed_cluster()
    issue = system_issuers(
        "mccs",
        cluster,
        {"A": single_app_gpus(cluster, "8gpu")},
        ecmp_seed=17,
        tag_nccl=False,
        datapath_latency=datapath_latency,
    )["A"]
    durations = []
    issue(Collective.ALL_REDUCE, size, durations.append)
    cluster.sim.run()
    return durations[0]


def test_fig06_datapath_latency_is_configurable():
    # the override lands additively: default (65us) sits exactly between
    # a free hop and a 200us hop
    free = mccs_duration(512 * KB, 0.0)
    default = mccs_duration(512 * KB, None)
    slow = mccs_duration(512 * KB, 200e-6)
    assert default - free == pytest.approx(65e-6, rel=1e-6)
    assert slow - free == pytest.approx(200e-6, rel=1e-6)
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
