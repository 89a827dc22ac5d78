"""Centralized manager tests (the §4.3 external controller)."""

import pytest

from repro.cluster.specs import ring_cluster, testbed_cluster
from repro.core.controller import CentralManager
from repro.core.deployment import MccsDeployment
from repro.netsim.background import BackgroundTrafficManager
from repro.netsim.errors import PolicyError
from repro.netsim.units import MB


@pytest.fixture
def env():
    cluster = testbed_cluster()
    deployment = MccsDeployment(cluster)
    return cluster, deployment, CentralManager(deployment)


def test_admit_installs_locality_ring(env):
    cluster, deployment, manager = env
    gpus = [g for h in (3, 1, 0, 2) for g in cluster.hosts[h].gpus]
    comm = manager.admit("A", gpus)
    hosts = [comm.gpus[r].host_id for r in comm.strategy.ring.order]
    assert hosts == [0, 0, 1, 1, 2, 2, 3, 3]
    assert comm.strategy.channels == 2


def test_manage_admissions_hooks_tenant_path(env):
    cluster, deployment, manager = env
    manager.manage_admissions()
    client = deployment.connect("A")
    gpus = [cluster.hosts[h].gpus[0] for h in (0, 2, 1, 3)]
    comm = client.create_communicator(gpus)
    state = deployment.communicator(comm.comm_id)
    hosts = [state.gpus[r].host_id for r in state.strategy.ring.order]
    assert hosts == [0, 1, 2, 3]


def test_apply_ring_policy_fixes_bad_rings(env):
    cluster, deployment, manager = env
    gpus = [cluster.hosts[h].gpus[0] for h in (0, 2, 1, 3)]
    comm = deployment.create_communicator("A", gpus)
    report = manager.apply_ring_policy()
    deployment.run()
    assert comm.comm_id in report.reconfigured_comms
    hosts = [comm.gpus[r].host_id for r in comm.strategy.ring.order]
    assert hosts == [0, 1, 2, 3]
    # a second pass is a no-op
    report2 = manager.apply_ring_policy()
    assert report2.reconfigured_comms == []


def test_apply_flow_policy_ffa_and_back_to_ecmp(env):
    cluster, deployment, manager = env
    manager.admit("A", [cluster.hosts[0].gpus[0], cluster.hosts[2].gpus[0]])
    manager.admit("B", [cluster.hosts[1].gpus[0], cluster.hosts[3].gpus[0]])
    report = manager.apply_flow_policy("ffa")
    deployment.run()
    assert len(report.reconfigured_comms) == 2
    assert all(c.strategy.route_map() for c in deployment.communicators())
    report = manager.apply_flow_policy("ecmp")
    deployment.run()
    assert all(not c.strategy.route_map() for c in deployment.communicators())


def test_apply_flow_policy_pfa(env):
    cluster, deployment, manager = env
    a = manager.admit("A", [cluster.hosts[0].gpus[0], cluster.hosts[2].gpus[0]])
    manager.admit("B", [cluster.hosts[1].gpus[0], cluster.hosts[3].gpus[0]])
    manager.apply_flow_policy("pfa", high_priority_apps=["A"], reserved_routes={0})
    deployment.run()
    assert all(r == 0 for r in a.strategy.route_map().values())


def test_pfa_places_a_rack_local_low_priority_flow(env):
    """A rack-local hop has one path (route 0): reservations cannot apply
    to a flow with no routing choice, so PFA must not refuse the tenant."""
    cluster, deployment, manager = env
    a = manager.admit("A", [cluster.hosts[0].gpus[0], cluster.hosts[2].gpus[0]])
    b = manager.admit("B", [cluster.hosts[0].gpus[1], cluster.hosts[1].gpus[0]])
    manager.apply_flow_policy("pfa", high_priority_apps=["A"], reserved_routes={0})
    deployment.run()
    assert set(a.strategy.route_map().values()) == {0}
    assert set(b.strategy.route_map().values()) == {0}


def test_demand_memo_keeps_live_communicators_only(env):
    cluster, deployment, manager = env
    a = manager.admit("A", [cluster.hosts[0].gpus[0], cluster.hosts[2].gpus[0]])
    b = manager.admit("B", [cluster.hosts[1].gpus[0], cluster.hosts[3].gpus[0]])
    manager.apply_flow_policy("ffa")
    deployment.run()
    assert set(manager.demand_memo) == {a.comm_id, b.comm_id}
    demands = manager.demand_memo[a.comm_id][1]
    client = deployment.connect("B")
    client.destroy_communicator(client.adopt_communicator(b.comm_id))
    manager.apply_flow_policy("ffa")
    assert set(manager.demand_memo) == {a.comm_id}
    assert manager.demand_memo[a.comm_id][1] is demands


def test_route_only_reconfiguration_reuses_flow_programs(env):
    cluster, deployment, manager = env
    gpus = [cluster.hosts[h].gpus[0] for h in range(4)]
    comm = manager.admit("A", gpus)
    client = deployment.connect("A")
    handle = client.adopt_communicator(comm.comm_id)
    client.all_reduce(handle, MB)
    deployment.run()
    misses = comm.program_cache.stats()["misses"]
    manager.apply_flow_policy("ffa")
    deployment.run()
    assert comm.strategy.route_map()
    client.all_reduce(handle, MB)
    deployment.run()
    assert comm.program_cache.stats()["misses"] == misses
    deployment.reconfigure(comm.comm_id, ring=(0, 2, 1, 3))
    deployment.run()
    client.all_reduce(handle, MB)
    deployment.run()
    assert comm.program_cache.stats()["misses"] == misses + len(gpus)


def test_unknown_flow_policy(env):
    cluster, deployment, manager = env
    with pytest.raises(PolicyError):
        manager.apply_flow_policy("chaos")


def test_policy_reports_accumulate(env):
    cluster, deployment, manager = env
    manager.admit("A", [cluster.hosts[0].gpus[0], cluster.hosts[2].gpus[0]])
    manager.apply_flow_policy("ffa")
    deployment.run()
    assert [r.policy for r in manager.reports] == ["ffa"]
    assert manager.reports[0].compute_seconds >= 0


def test_prioritize_with_ts_gates_selected_apps(env):
    cluster, deployment, manager = env
    a = manager.admit("A", [cluster.hosts[0].gpus[0], cluster.hosts[2].gpus[0]])
    manager.admit("B", [cluster.hosts[1].gpus[0], cluster.hosts[3].gpus[0]])
    manager.admit("C", [cluster.hosts[0].gpus[1], cluster.hosts[2].gpus[1]])
    client = deployment.connect("A")
    handle = client.adopt_communicator(a.comm_id)
    for _ in range(5):
        client.all_reduce(handle, 32 * MB)
    deployment.run()
    manager.prioritize_with_ts("A", affected_apps=["C"])
    assert deployment.gates.schedule_of("C") is not None
    assert deployment.gates.schedule_of("B") is None
    manager.clear_traffic_schedules()
    assert deployment.gates.schedule_of("C") is None


def test_prioritize_without_trace_raises(env):
    cluster, deployment, manager = env
    with pytest.raises(PolicyError):
        manager.prioritize_with_ts("ghost")


def test_adapt_to_background_reverses_ring():
    cluster = ring_cluster()
    deployment = MccsDeployment(cluster)
    background = BackgroundTrafficManager(cluster.sim)
    manager = CentralManager(deployment, background=background)
    gpus = [g for host in cluster.hosts for g in host.gpus]
    comm = manager.admit("T", gpus)
    background.occupy("sw1->sw2", 75.0)
    session = manager.adapt_to_background(comm.comm_id)
    deployment.run()
    assert session is not None and session.done
    assert comm.strategy.ring.order == tuple(reversed(range(8)))


def test_adapt_noop_when_no_better_ring():
    cluster = ring_cluster()
    deployment = MccsDeployment(cluster)
    background = BackgroundTrafficManager(cluster.sim)
    manager = CentralManager(deployment, background=background)
    gpus = [g for host in cluster.hosts for g in host.gpus]
    comm = manager.admit("T", gpus)
    assert manager.adapt_to_background(comm.comm_id) is None


def test_adapt_requires_background_manager(env):
    cluster, deployment, manager = env
    comm = manager.admit("A", [cluster.hosts[0].gpus[0], cluster.hosts[2].gpus[0]])
    with pytest.raises(PolicyError):
        manager.adapt_to_background(comm.comm_id)


def test_watch_background_auto_recovers():
    """The automated Figure 7 loop: no explicit reconfigure call — the
    manager polls the switch agent and re-rings the job on its own."""
    cluster = ring_cluster()
    deployment = MccsDeployment(cluster)
    background = BackgroundTrafficManager(cluster.sim)
    manager = CentralManager(deployment, background=background)
    gpus = [g for host in cluster.hosts for g in host.gpus]
    comm = manager.admit("T", gpus)
    client = deployment.connect("T")
    handle = client.adopt_communicator(comm.comm_id)
    samples = []

    def loop(instance=None, now=None):
        if instance is not None:
            samples.append((now, 128 * MB / instance.duration() / 1e9))
        if cluster.sim.now < 8.0:
            client.all_reduce(handle, 128 * MB, on_complete=loop)

    loop()
    cluster.sim.schedule(2.0, lambda: background.occupy("sw1->sw2", 75.0))
    manager.watch_background(interval=0.5, until=8.0)
    deployment.run(until=9.0)
    # the watcher must have flipped the ring within one poll interval
    assert comm.strategy.ring.order == tuple(reversed(range(8)))
    late = [bw for t, bw in samples if t > 4.0]
    early = [bw for t, bw in samples if t < 2.0]
    assert sum(late) / len(late) == pytest.approx(sum(early) / len(early), rel=0.1)


def test_watch_background_requires_manager():
    cluster = ring_cluster()
    deployment = MccsDeployment(cluster)
    manager = CentralManager(deployment)
    with pytest.raises(PolicyError):
        manager.watch_background(until=1.0)
