"""Online tuner integration: live retuning through the §4.2 barrier."""

import gc
import weakref
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.autotune import StrategyPlanner, size_bucket
from repro.cluster.specs import testbed_cluster
from repro.collectives.types import Collective
from repro.core.deployment import MccsDeployment
from repro.experiments.setups import measure_static, single_app_gpus
from repro.netsim.units import KB, MB


def tuned_run(
    size,
    *,
    rounds=12,
    setup="8gpu",
    on_complete=None,
):
    """Default-strategy communicator + autotuner, driven for ``rounds``.

    The communicator pins the experiment's datapath tag so durations (and
    comparisons against ``measure_static`` under the same tag) are
    independent of how many communicators earlier tests created.
    """
    cluster = testbed_cluster()
    gpus = single_app_gpus(cluster, setup)
    deployment = MccsDeployment(cluster)
    tuner = deployment.enable_autotuning()
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
    assert list(tuner._states) == [comm.comm_id]
    assert deployment.enable_autotuning() is tuner
    assert list(tuner._states) == [comm.comm_id]


def test_destroy_releases_the_tuned_communicator():
    """The tuner's per-comm state holds the whole communicator (trace
    ring, connection tables, program cache): destroy drops it, and the
    no-id counts sum over the live communicators."""
    cluster = testbed_cluster()
    deployment = MccsDeployment(cluster)
    tuner = deployment.enable_autotuning()
    client = deployment.connect("A")
    gpus = single_app_gpus(cluster, "4gpu")
    live = client.create_communicator(gpus)
    destroyed = []
    for _ in range(5):
        comm = client.create_communicator(gpus)
        for handle in (comm, live):
            client.all_reduce(handle, 64 * KB)
            deployment.run()
        destroyed.append(weakref.ref(deployment.communicator(comm.comm_id)))
        client.destroy_communicator(comm)
    gc.collect()
    assert list(tuner._states) == [live.comm_id]
    assert [ref() for ref in destroyed] == [None] * 5
    assert tuner.retunes_applied() == tuner.retunes_applied(live.comm_id)
    assert tuner.epoch_retunes() == tuner.epoch_retunes(live.comm_id)


def test_retunes_applied_exclusively_through_the_barrier():
    deployment, tuner, comm, _ = tuned_run(64 * KB)
    sessions = deployment.telemetry().sessions
    assert tuner.retunes_applied(comm.comm_id) > 0
    assert sessions, "the tuner never issued a reconfiguration"
    assert all(s.barrier_enabled for s in sessions)
    assert comm.inconsistent_collectives == 0


def test_strategy_versions_are_monotonic():
    deployment, tuner, comm, _ = tuned_run(64 * KB)
    committed = [
        (session.from_version, session.to_version)
        for session in deployment.telemetry().sessions
        if session.done_time is not None and not session.failed
    ]
    assert committed, "the tuner never committed a strategy"
    versions = [committed[0][0]] + [to for _, to in committed]
    assert all(to == frm + 1 for frm, to in committed)
    assert versions == list(range(versions[0], versions[-1] + 1))
    assert comm.strategy.version == versions[-1]
    assert comm.strategy_epoch == len(versions) - 1
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
    best_static = min(
        measure_static(
            testbed_cluster,
            partial(single_app_gpus, setup="8gpu"),
            Collective.ALL_REDUCE,
            size,
            algorithm=s.candidate.algorithm,
            channels=s.candidate.channels,
            ring=s.candidate.ring,
            iters=2,
            tag="autotune",
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
    gain = deployment.telemetry().metrics.get("mccs_autotune_gain_seconds")
    assert gain is not None and gain.kind == "gauge"


def test_size_bucket_covers_half_open_power_of_two_ranges():
    assert size_bucket(1) == 0
    assert size_bucket(2) == 1
    assert size_bucket(1024) == 10
    assert size_bucket(1025) == 11
    with pytest.raises(ValueError):
        size_bucket(0)


@given(st.integers(1, 2**40))
@settings(max_examples=100, deadline=None)
def test_size_bucket_bounds(nbytes):
    k = size_bucket(nbytes)
    assert 2 ** (k - 1) < nbytes <= 2**k if k else nbytes == 1


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


def test_tuner_does_not_flap_between_tied_arms():
    """Where a run sits on the clock moves only the last-ulp rounding of
    its measured durations.  Two strategies the model times alike (ring
    with one and with two channels at 64 MB) then differ by that rounding
    alone: the tuner adopts the same strategies from t=0 as from t=1000,
    and once exploration is spent it never retunes between two arms
    whose means tie, since each such retune is a barrier that gains
    nothing."""

    def adopted(start):
        cluster = testbed_cluster()
        deployment = MccsDeployment(cluster)
        tuner = deployment.enable_autotuning()
        comm = deployment.create_communicator(
            "A", single_app_gpus(cluster, "8gpu"), datapath_tag="autotune"
        )
        cluster.sim.run(until=start)
        client = deployment.connect("A")
        shim = client.adopt_communicator(comm.comm_id)
        rounds = []
        for _ in range(24):
            client.all_reduce(shim, 64 * MB)
            deployment.run()
            (bucket,) = tuner._states[comm.comm_id].buckets.values()
            strategy = comm.strategy
            rounds.append(
                (
                    (strategy.algorithm, strategy.channels, tuple(strategy.ring.order)),
                    bucket.bandit.exploration_exhausted,
                )
            )
        return rounds, bucket.bandit

    rounds, bandit = adopted(0.0)
    later, _ = adopted(1000.0)
    assert [arm for arm, _ in rounds] == [arm for arm, _ in later]
    tied_retunes = [
        (before, after)
        for (before, _), (after, exhausted) in zip(rounds, rounds[1:])
        if exhausted and before != after
        and bandit.mean(before) == pytest.approx(bandit.mean(after), rel=1e-9)
    ]
    assert tied_retunes == []


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
                inst.launch_strategy
            ),
        )
        deployment.run()
        expected = values.sum(axis=0)
        for buf in recvs:
            assert np.allclose(buf.view(np.float32), expected, atol=1e-4)
    assert len(executed) == 10
    versions = [strategy.version for strategy in executed]
    assert versions == sorted(versions)  # versions only move forward
    algorithms = {strategy.algorithm for strategy in executed}
    assert algorithms <= {"ring", "tree", "halving_doubling"}
