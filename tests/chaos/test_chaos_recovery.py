"""Chaos suite: randomized fault plans against a recovering deployment.

The contract under test (ISSUE robustness tentpole): for *any* seeded
:meth:`FaultPlan.random`, every collective a tenant issues either

* completes byte-correct on the surviving ranks, or
* surfaces a typed :class:`ReproError` (communicator abort) within the
  deployment's deadline budget,

the simulation always terminates (no hangs), and a co-located tenant
whose ranks share no failed component is never disturbed.

Seeds come from three places: Hypothesis (shrinkable exploration), a
fixed regression matrix, and the ``MCCS_CHAOS_SEED`` environment
variable (the CI chaos job's seed matrix).  A failing seed replays
exactly — plans, ECMP and arrivals all hang off one ``random.Random``.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster.specs import testbed_cluster
from repro.core.controller import CentralManager
from repro.core.deployment import MccsDeployment
from repro.errors import CommunicatorError, ReproError
from repro.faults import FaultInjector, FaultKind, FaultPlan
from repro.netsim.units import MB

pytestmark = pytest.mark.chaos


def _env_seeds():
    raw = os.environ.get("MCCS_CHAOS_SEED", "")
    return [int(tok) for tok in raw.replace(",", " ").split() if tok.strip()]


#: Fixed regression seeds, extended by the CI job's MCCS_CHAOS_SEED matrix.
SEEDS = sorted(set([0, 1, 7, 42, 1337] + _env_seeds()))


def run_chaos(seed: int, *, num_faults: int = 2, num_ops: int = 3) -> dict:
    """One chaos episode; returns a verdict dict the invariants inspect."""
    import random

    rng = random.Random(seed)
    cluster = testbed_cluster()
    deployment = MccsDeployment(cluster, ecmp_seed=seed)
    recovery = deployment.enable_recovery(
        collective_deadline=0.25, heartbeat_until=3.0
    )
    # Service crashes (now in FaultPlan.random's default kind mix) are
    # repaired by supervised journal-replay restarts.
    deployment.enable_service_supervision()
    # rank_join / rank_leave events below reshape the victim live; every
    # pre-churn collective still drains under its issue-time membership,
    # so the byte-exact check stays pinned to the original world size.
    deployment.enable_elasticity()
    manager = CentralManager(deployment)

    victim_gpus = [cluster.hosts[h].gpus[0] for h in range(4)]
    victim_state = manager.admit("victim", victim_gpus)
    # The healthy tenant lives on hosts 0-1 only; plans below never touch
    # those hosts, so it must sail through whatever happens to the victim.
    healthy_gpus = [cluster.hosts[0].gpus[1], cluster.hosts[1].gpus[1]]
    healthy_state = manager.admit("healthy", healthy_gpus)

    victim = deployment.connect("victim")
    healthy = deployment.connect("healthy")
    vcomm = victim.adopt_communicator(victim_state.comm_id)
    hcomm = healthy.adopt_communicator(healthy_state.comm_id)

    plan = FaultPlan.random(
        cluster,
        rng=rng,
        horizon=0.05,
        min_time=0.001,
        num_faults=num_faults,
        kinds=(
            FaultKind.LINK_DOWN,
            FaultKind.LINK_DEGRADE,
            FaultKind.BANDWIDTH_DRIFT,
            FaultKind.NIC_FAIL,
            FaultKind.HOST_CRASH,
            FaultKind.SERVICE_CRASH,
            FaultKind.RANK_LEAVE,
            FaultKind.RANK_JOIN,
        ),
        host_candidates=[2, 3],  # keep hosts 0-1 (healthy tenant) safe
    )
    injector = FaultInjector(
        cluster, deployment.telemetry(), deployment=deployment
    )
    injector.schedule(plan)

    sends = [victim.alloc(g, 256) for g in victim_gpus]
    recvs = [victim.alloc(g, 256) for g in victim_gpus]
    for buf in sends:
        buf.view(np.float32)[:] = 3.0
    victim_ops = []
    issue_error = None
    try:
        for _ in range(num_ops - 1):
            victim_ops.append(victim.all_reduce(vcomm, 32 * MB))
        victim_ops.append(victim.all_reduce(vcomm, 256, send=sends, recv=recvs))
    except ReproError as exc:  # comm aborted before the stream finished
        issue_error = exc
    healthy_op = healthy.all_reduce(hcomm, 8 * MB)

    deployment.run()  # bounded: heartbeat monitor stops at heartbeat_until

    comm_obj = deployment.communicator(vcomm.comm_id)
    return {
        "plan": plan,
        "recovery": recovery,
        "comm": comm_obj,
        "victim_ops": victim_ops,
        "recvs": recvs,
        "issue_error": issue_error,
        "healthy_op": healthy_op,
        "num_ranks": len(victim_gpus),
        "deployment": deployment,
        "sim_end": cluster.sim.now,
    }


def assert_invariants(result: dict) -> None:
    """The chaos contract, applied to one finished episode."""
    comm = result["comm"]
    plan_text = "; ".join(result["plan"].describe()) or "(no faults)"
    # 1. No hangs: every issued victim collective reached a terminal state.
    for op in result["victim_ops"]:
        assert not op.pending, (
            f"collective seq={op.seq} stuck in the shim retry queue "
            f"under plan [{plan_text}]"
        )
        if op.instance is None:
            # Never reached the service: must carry a typed give-up error.
            assert isinstance(op.error, ReproError)
            continue
        assert op.instance.end_time is not None, (
            f"collective seq={op.seq} never terminated under plan [{plan_text}]"
        )
        # 2. Terminal means completed OR aborted with a typed error.
        if op.instance.aborted:
            assert isinstance(op.instance.error, ReproError), (
                f"aborted seq={op.seq} carries "
                f"{type(op.instance.error).__name__}, not a ReproError"
            )
        else:
            assert op.completed
    # 3. Aborted communicators reject reuse with a typed error.
    if comm.aborted:
        assert isinstance(comm.abort_error, ReproError)
    elif result["issue_error"] is None and result["victim_ops"]:
        last = result["victim_ops"][-1]
        # 4. Byte-correctness on the survivors: if the stream completed,
        #    the recovered datapath must still sum correctly.
        if last.completed:
            expected = 3.0 * result["num_ranks"]
            for rank, recv in enumerate(result["recvs"]):
                assert np.allclose(recv.view(np.float32), expected), (
                    f"rank {rank} bytes wrong after recovery "
                    f"under plan [{plan_text}]"
                )
    # 5. Blast radius: the co-located tenant is never disturbed.
    assert result["healthy_op"].completed, (
        f"healthy tenant disturbed by plan [{plan_text}]"
    )
    # 6. The journal stays replay-consistent with the live control plane
    #    through every crash/restart the plan inflicted.
    assert result["deployment"].verify_journal() == [], (
        f"journal diverged under plan [{plan_text}]"
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_chaos_seed_matrix(seed):
    assert_invariants(run_chaos(seed))


@given(seed=st.integers(min_value=0, max_value=2**16))
@settings(
    max_examples=15,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_chaos_hypothesis(seed):
    assert_invariants(run_chaos(seed, num_faults=3))


@pytest.mark.parametrize("seed", SEEDS[:3])
def test_chaos_plan_is_deterministic(seed):
    """The same seed draws the identical plan (replayability)."""
    cluster = testbed_cluster()
    first = FaultPlan.random(cluster, seed=seed, num_faults=4)
    second = FaultPlan.random(cluster, seed=seed, num_faults=4)
    assert first.events == second.events


def test_chaos_shared_rng_covers_arrivals():
    """One Random drives both arrivals and fault plans reproducibly."""
    import random

    from repro.workloads.arrivals import poisson_arrivals

    cluster = testbed_cluster()

    def draw(seed):
        rng = random.Random(seed)
        jobs = poisson_arrivals(5, rng=rng)
        plan = FaultPlan.random(cluster, rng=rng, num_faults=2)
        return jobs, plan.events

    assert draw(99) == draw(99)
    assert draw(99) != draw(100)
