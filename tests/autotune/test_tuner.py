"""Online tuner integration: live retuning through the §4.2 barrier."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.autotune import StrategyPlanner, TuningTable
from repro.cluster.specs import testbed_cluster
from repro.collectives.types import Collective
from repro.core.deployment import MccsDeployment
from repro.experiments.setups import single_app_gpus
from repro.netsim.units import KB, MB


def tuned_run(
    size,
    *,
    rounds=12,
    table=None,
    setup="8gpu",
    on_complete=None,
):
    """Default-strategy communicator + autotuner, driven for ``rounds``.

    The communicator pins the experiment's datapath tag so durations (and
    comparisons against ``_measure_static``, which pins the same tag) are
    independent of how many communicators earlier tests created.
    """
    cluster = testbed_cluster()
    gpus = single_app_gpus(cluster, setup)
    deployment = MccsDeployment(cluster)
    tuner = deployment.enable_autotuning(table=table)
    comm = deployment.create_communicator(
        "A", gpus, datapath_tag="autotune"
    )
    client = deployment.connect("A")
    shim = client.adopt_communicator(comm.comm_id)
    durations = []
    for _ in range(rounds):
        client.all_reduce(
            shim,
            size,
            on_complete=lambda inst, now: (
                durations.append(inst.duration()),
                on_complete(inst) if on_complete else None,
            ),
        )
        deployment.run()
    return deployment, tuner, comm, durations


def test_enable_autotuning_is_idempotent_and_attaches_existing_comms():
    cluster = testbed_cluster()
    deployment = MccsDeployment(cluster)
    comm = deployment.create_communicator(
        "A", single_app_gpus(cluster, "4gpu")
    )
    tuner = deployment.enable_autotuning()
    assert tuner.attached_comms() == (comm.comm_id,)
    assert deployment.enable_autotuning() is tuner
    assert tuner.attached_comms() == (comm.comm_id,)


def test_retunes_applied_exclusively_through_the_barrier():
    deployment, tuner, comm, _ = tuned_run(64 * KB)
    sessions = deployment.reconfig.sessions
    assert tuner.retunes_applied(comm.comm_id) > 0
    assert sessions, "the tuner never issued a reconfiguration"
    assert all(s.barrier_enabled for s in sessions)
    assert comm.inconsistent_collectives == 0


def test_strategy_versions_are_monotonic():
    _, tuner, comm, _ = tuned_run(64 * KB)
    versions = sorted(comm.strategy_history)
    assert versions == list(range(versions[0], versions[-1] + 1))
    assert comm.strategy.version == versions[-1]
    assert comm.strategy.version >= tuner.retunes_applied(comm.comm_id)


@pytest.mark.parametrize("size", [64 * KB, 64 * MB])
def test_tuner_converges_to_best_static_choice(size):
    cluster = testbed_cluster()
    gpus = single_app_gpus(cluster, "8gpu")
    predictions = StrategyPlanner(cluster).plan(
        Collective.ALL_REDUCE, size, gpus
    )
    deployment, tuner, comm, durations = tuned_run(size, rounds=24)
    tail = sum(durations[-4:]) / 4
    # measure the best candidate statically on a fresh deployment
    from repro.experiments.fig_autotune import _measure_static

    best_static = min(
        _measure_static(
            "8gpu",
            Collective.ALL_REDUCE,
            size,
            algorithm=s.candidate.algorithm,
            channels=s.candidate.channels,
            ring=s.candidate.ring,
            iters=2,
        )
        for s in predictions
    )
    assert tail <= best_static * 1.05


def test_observation_and_retune_metrics_published():
    deployment, tuner, comm, durations = tuned_run(64 * KB)
    counters = deployment.telemetry().metrics.counters()
    label = {"comm": f"comm{comm.comm_id}"}
    assert counters["mccs_autotune_observations_total"].value(**label) == (
        len(durations)
    )
    assert counters["mccs_autotune_retunes_applied_total"].total() == (
        tuner.retunes_applied(comm.comm_id)
    )
    assert "mccs_autotune_regret_seconds_total" in counters
    gauges = deployment.telemetry().metrics.gauges()
    assert "mccs_autotune_gain_seconds" in gauges


def test_table_miss_grows_table_then_hit_on_reload(tmp_path):
    deployment, tuner, _, _ = tuned_run(64 * KB, rounds=4)
    counters = deployment.telemetry().metrics.counters()
    assert counters["mccs_autotune_table_misses_total"].total() == 1
    assert len(tuner.table) == 1  # planner's winner cached on the miss
    path = str(tmp_path / "table.json")
    tuner.table.save(path)

    # a fresh deployment seeded with the persisted table hits immediately
    deployment2, tuner2, _, _ = tuned_run(
        64 * KB, rounds=4, table=TuningTable.load(path)
    )
    counters2 = deployment2.telemetry().metrics.counters()
    assert counters2["mccs_autotune_table_hits_total"].total() == 1
    assert counters2["mccs_autotune_table_misses_total"].total() == 0


def test_buckets_are_tuned_independently():
    deployment, tuner, comm, _ = tuned_run(64 * KB, rounds=6)
    client = deployment.connect("A")
    shim = client.adopt_communicator(comm.comm_id)
    for _ in range(6):
        client.all_reduce(shim, 64 * MB, on_complete=lambda inst, now: None)
        deployment.run()
    state = tuner._states[comm.comm_id]
    assert len(state.buckets) == 2
    kinds = {key[0] for key in state.buckets}
    assert kinds == {"all_reduce"}


def test_tuned_run_never_ends_worse_than_it_started():
    deployment, tuner, comm, durations = tuned_run(64 * KB, rounds=20)
    assert tuner.retunes_applied(comm.comm_id) > 0
    assert comm.inconsistent_collectives == 0
    # never ends up worse than where it started (allow fp noise)
    assert min(durations[-3:]) <= min(durations[:3]) * (1 + 1e-6)


@given(seed=st.integers(0, 2**16))
@settings(max_examples=5, deadline=None)
def test_midrun_retunes_preserve_byte_correctness(seed):
    """Real bytes through the service while the tuner retunes: every
    AllReduce — under whatever strategy the bandit had installed at that
    instant — lands the exact numpy sum in the receive buffers, and the
    executed strategy versions never regress."""
    rng = np.random.default_rng(seed)
    cluster = testbed_cluster()
    gpus = single_app_gpus(cluster, "8gpu")
    deployment = MccsDeployment(cluster)
    deployment.enable_autotuning()
    comm = deployment.create_communicator("A", gpus)
    client = deployment.connect("A")
    shim = client.adopt_communicator(comm.comm_id)
    size = 64 * KB
    sends = [client.alloc(g, size) for g in gpus]
    recvs = [client.alloc(g, size) for g in gpus]
    executed = []
    for _ in range(10):
        values = rng.standard_normal(
            (len(gpus), size // 4)
        ).astype(np.float32)
        for buf, row in zip(sends, values):
            buf.view(np.float32)[:] = row
        for buf in recvs:
            buf.view(np.float32)[:] = 0.0
        client.all_reduce(
            shim,
            size,
            send=sends,
            recv=recvs,
            on_complete=lambda inst, now: executed.append(
                next(iter(inst.rank_versions.values()))
            ),
        )
        deployment.run()
        expected = values.sum(axis=0)
        for buf in recvs:
            assert np.allclose(buf.view(np.float32), expected, atol=1e-4)
    assert len(executed) == 10
    assert executed == sorted(executed)  # versions only move forward
    algorithms = {
        comm.strategy_history[v].algorithm for v in executed
    }
    assert algorithms <= {"ring", "tree", "halving_doubling"}
