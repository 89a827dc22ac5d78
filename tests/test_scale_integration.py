"""Large-scale integration: MCCS managing churning tenants on 768 GPUs."""

import pytest

from repro.cluster.placement import ClusterAllocator
from repro.cluster.specs import large_cluster
from repro.core.controller import CentralManager
from repro.core.deployment import MccsDeployment
from repro.netsim.units import MB
from repro.workloads.arrivals import poisson_arrivals


@pytest.mark.slow
def test_job_churn_with_policies_on_large_cluster():
    """Jobs arrive, run a few collectives under locality rings + FFA,
    depart; the controller reschedules on every join/exit; nothing leaks
    and all collectives complete consistently."""
    cluster = large_cluster()
    deployment = MccsDeployment(cluster)
    manager = CentralManager(deployment)
    allocator = ClusterAllocator(cluster, seed=5)
    jobs = poisson_arrivals(12, seed=5, sizes=(16, 32))
    finished = []
    consistent = []

    def launch(spec):
        gpus = allocator.place_compact(spec.job_id, spec.num_gpus)
        state = manager.admit(spec.job_id, gpus, channels=4)
        manager.apply_flow_policy("ffa")
        client = deployment.connect(spec.job_id)
        handle = client.adopt_communicator(state.comm_id)
        remaining = {"n": 3}

        def next_op(inst=None, now=None):
            if inst is not None:
                consistent.append(inst.consistent)
            if remaining["n"] == 0:
                client.destroy_communicator(handle)
                allocator.release(spec.job_id)
                manager.apply_flow_policy("ffa")  # reschedule on exit
                finished.append(spec.job_id)
                return
            remaining["n"] -= 1
            client.all_reduce(handle, 64 * MB, on_complete=next_op)

        next_op()

    for spec in jobs:
        cluster.sim.schedule(spec.arrival_time, lambda spec=spec: launch(spec))
    deployment.run()
    assert sorted(finished) == sorted(j.job_id for j in jobs)
    assert len(consistent) == 3 * len(jobs) and all(consistent)
    assert deployment.communicators() == []
    assert allocator.free_count == cluster.num_gpus
    # every FFA pass stayed in the paper's ~1 ms planning regime
    ffa_reports = [r for r in manager.reports if r.policy == "ffa"]
    assert ffa_reports
    assert max(r.compute_seconds for r in ffa_reports) < 0.5


@pytest.mark.slow
def test_mid_churn_reconfigurations_stay_consistent():
    """Ring reconfigurations issued while many tenants are active never
    mix strategy versions."""
    cluster = large_cluster()
    deployment = MccsDeployment(cluster)
    manager = CentralManager(deployment)
    allocator = ClusterAllocator(cluster, seed=9)
    handles = []
    for i in range(6):
        gpus = allocator.place_random(f"job{i}", 16)
        state = manager.admit(f"job{i}", gpus, channels=2)
        client = deployment.connect(f"job{i}")
        handles.append((state, client, client.adopt_communicator(state.comm_id)))
    ops = []
    for state, client, handle in handles:
        for _ in range(3):
            ops.append(client.all_reduce(handle, 32 * MB))
    # re-ring everyone mid-flight with staggered delivery
    for state, client, handle in handles:
        order = list(reversed(state.strategy.ring.order))
        deployment.reconfigure(
            state.comm_id,
            ring=order,
            delays=[0.0002 * (r % 5) for r in range(state.world)],
        )
    for state, client, handle in handles:
        ops.append(client.all_reduce(handle, 32 * MB))
    deployment.run()
    assert all(op.completed for op in ops)
    for state, _, _ in handles:
        assert state.inconsistent_collectives == 0
        assert state.strategy.version == 1
