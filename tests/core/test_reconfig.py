"""The Figure 4 reconfiguration protocol.

These tests reproduce the paper's synchronization story exactly:

* with the barrier, reconfiguration requests arriving at different ranks
  at different times can never produce a collective whose ranks disagree
  on the strategy version;
* with the barrier disabled (left half of Figure 4), exactly that
  inconsistency occurs;
* the fast path (no reconfiguration in flight) pays zero overhead;
* ``max_seq`` lets late ranks launch already-launched collectives under
  the *old* configuration before applying the update.
"""

import pytest

from repro.cluster.specs import testbed_cluster
from repro.core.controller import CentralManager
from repro.core.deployment import MccsDeployment
from repro.core.reconfig import DEFAULT_CONTROL_RING_LATENCY
from repro.netsim.errors import ReconfigurationError
from repro.netsim.units import MB


def make_env(world=3):
    cluster = testbed_cluster()
    deployment = MccsDeployment(cluster)
    gpus = [cluster.hosts[h % 4].gpus[h // 4] for h in range(world)]
    comm = deployment.create_communicator("app", gpus)
    client = deployment.connect("app")
    handle = client.adopt_communicator(comm.comm_id)
    return cluster, deployment, comm, client, handle


def test_barrier_keeps_collectives_consistent_under_delays():
    """The right half of Figure 4: staggered Req delivery, no mixing."""
    cluster, deployment, comm, client, handle = make_env()
    ops = [client.all_reduce(handle, 8 * MB) for _ in range(3)]
    session = deployment.reconfigure(
        comm.comm_id,
        ring=[2, 1, 0],
        delays=[0.05, 0.0, 0.001],  # rank 0 hears about it *last*
    )
    more = [client.all_reduce(handle, 8 * MB) for _ in range(2)]
    deployment.run()
    assert session.done
    assert comm.inconsistent_collectives == 0
    assert all(op.completed for op in ops + more)
    assert all(op.instance.consistent for op in ops + more)
    assert comm.strategy.ring.order == (2, 1, 0)


def test_paper_scenario_max_seq():
    """AR0 launched everywhere; rank 0 launches AR1 before its Req.

    Ranks 1 and 2 contribute seq 0, rank 0 contributes seq 1; everyone
    agrees max_seq = 1 and ranks 1/2 launch AR1 with the old ring first.
    """
    cluster, deployment, comm, client, handle = make_env()
    client.all_reduce(handle, 8 * MB)  # AR0
    deployment.run()
    # AR1 is issued; the fan-out happens immediately, so all ranks launch
    # it... to stage the hazard we deliver the request first to ranks 1,2
    # *before* AR1 is issued, then issue AR1 (rank 0 still un-notified).
    session = deployment.reconfigure(
        comm.comm_id, ring=[2, 1, 0], delays=[0.010, 0.0, 0.0]
    )
    deployment.run(until=cluster.sim.now + 0.001)  # ranks 1,2 now holding
    proxies = deployment.proxies_of(comm)
    assert proxies[1].state(comm.comm_id, 1).holding
    assert proxies[2].state(comm.comm_id, 2).holding
    ar1 = client.all_reduce(handle, 8 * MB)  # rank 0 launches; 1,2 queue
    deployment.run()
    assert session.done
    assert session.max_seq == 1
    assert session.barrier.contributions == {0: 1, 1: 0, 2: 0}
    assert ar1.completed
    assert comm.inconsistent_collectives == 0
    # AR1 ran under the OLD ring on every rank.
    assert set(ar1.instance.rank_versions.values()) == {0}


def test_broken_protocol_mixes_versions():
    """The left half of Figure 4: without the barrier, ranks disagree."""
    cluster, deployment, comm, client, handle = make_env()
    client.all_reduce(handle, 8 * MB)
    deployment.run()
    deployment.reconfigure(
        comm.comm_id,
        ring=[2, 1, 0],
        delays=[0.010, 0.0, 0.0],
        barrier_enabled=False,
    )
    deployment.run(until=cluster.sim.now + 0.001)  # ranks 1,2 updated; rank 0 not
    ar1 = client.all_reduce(handle, 8 * MB)
    deployment.run()
    assert ar1.completed
    assert not ar1.instance.consistent
    assert comm.inconsistent_collectives == 1
    assert set(ar1.instance.rank_versions.values()) == {0, 1}


def test_no_reconfig_means_no_barrier_work():
    """Fast path: without a request there is no synchronization at all."""
    cluster, deployment, comm, client, handle = make_env()
    for _ in range(4):
        client.all_reduce(handle, 8 * MB)
    deployment.run()
    assert len(deployment.telemetry().sessions) == 0
    assert all(p.reconfigurations == 0 for p in deployment.proxies_of(comm))


def test_collectives_resume_under_new_ring():
    cluster, deployment, comm, client, handle = make_env()
    session = deployment.reconfigure(comm.comm_id, ring=[1, 0, 2])
    deployment.run()
    op = client.all_reduce(handle, 8 * MB)
    deployment.run()
    assert set(op.instance.rank_versions.values()) == {1}


def test_double_reconfigure_rejected_while_in_flight():
    cluster, deployment, comm, client, handle = make_env()
    deployment.reconfigure(comm.comm_id, ring=[2, 1, 0], delays=[0.5, 0.5, 0.5])
    with pytest.raises(ReconfigurationError):
        deployment.reconfigure(comm.comm_id, ring=[1, 0, 2])


def test_rejected_reconfigure_has_no_side_effect():
    """A wrong-length ``delays`` is refused before a session exists: the
    communicator stays reconfigurable and nothing was logged or counted
    (it used to leave an undeliverable session in ``_active`` for ever)."""
    cluster, deployment, comm, client, handle = make_env()
    hub = deployment.telemetry()

    def observed():
        return (
            len(hub.sessions),
            len(list(hub.spans)),
            len(hub.events.events("reconfig_issued")),
            hub.metrics.counter("mccs_reconfigs_total").total(),
            comm.strategy.ring.order,
        )

    before = observed()
    with pytest.raises(ReconfigurationError, match="one delivery delay per rank"):
        deployment.reconfigure(comm.comm_id, ring=[2, 1, 0], delays=[0.0])
    assert observed() == before
    session = deployment.reconfigure(comm.comm_id, ring=[2, 1, 0])
    deployment.run()
    assert session.done and comm.strategy.ring.order == (2, 1, 0)
    assert hub.metrics.counter("mccs_reconfigs_total").total() == 1


def test_sequential_reconfigurations_allowed():
    cluster, deployment, comm, client, handle = make_env()
    deployment.reconfigure(comm.comm_id, ring=[2, 1, 0])
    deployment.run()
    session = deployment.reconfigure(comm.comm_id, ring=[1, 2, 0])
    deployment.run()
    assert session.done
    assert comm.strategy.version == 2


def test_reconfig_overhead_is_bounded():
    """Collectives stall only until the AllGather resolves (§4.2)."""
    cluster, deployment, comm, client, handle = make_env()
    ops = [client.all_reduce(handle, 8 * MB) for _ in range(2)]
    deployment.run()
    baseline = ops[1].duration()
    session = deployment.reconfigure(comm.comm_id, ring=[2, 1, 0])
    op = client.all_reduce(handle, 8 * MB)
    deployment.run()
    # Overhead: the control-ring round plus re-established connections.
    assert op.duration() <= baseline + DEFAULT_CONTROL_RING_LATENCY + 1e-3
    assert session.resolve_time is not None
    elapsed = session.resolve_time - session.issue_time
    assert elapsed >= DEFAULT_CONTROL_RING_LATENCY - 1e-12


def test_route_only_reconfiguration():
    cluster, deployment, comm, client, handle = make_env()
    session = deployment.reconfigure(
        comm.comm_id, routes={(0, 1, 0): 1}
    )
    deployment.run()
    assert session.done
    assert comm.strategy.route_map() == {(0, 1, 0): 1}


def test_old_connections_torn_down_after_drain():
    cluster, deployment, comm, client, handle = make_env()
    client.all_reduce(handle, 8 * MB)
    deployment.run()
    assert comm.datapath.live_versions() == [0]
    deployment.reconfigure(comm.comm_id, ring=[2, 1, 0])
    deployment.run()
    client.all_reduce(handle, 8 * MB)
    deployment.run()
    assert 0 not in comm.datapath.live_versions()
    assert comm.datapath.teardowns >= 1


def test_contribute_twice_rejected():
    cluster, deployment, comm, client, handle = make_env()
    session = deployment.reconfigure(
        comm.comm_id, ring=[2, 1, 0], delays=[1.0, 1.0, 1.0]
    )
    deployment.run(until=0.0)
    session.contribute(0, -1)
    with pytest.raises(ReconfigurationError):
        session.contribute(0, -1)


def test_abandoned_session_is_recorded_failed_not_raised():
    """A provider reconfiguration without ``on_failed`` that the tenant's
    destroy abandons: the destroy returns, the session is recorded failed
    with its error in the hub's session ring, and nothing is raised."""
    cluster, deployment, comm, client, handle = make_env()
    session = deployment.reconfigure(comm.comm_id, routes={}, delays=[1.0] * 3)
    client.destroy_communicator(handle)
    deployment.run()
    assert session.failed and not session.done
    assert "abandoned: it was destroyed" in str(session.error)
    assert session in list(deployment.telemetry().sessions)
    assert deployment.reconfig._active == {}


def test_unhandled_barrier_timeout_still_raises():
    cluster, deployment, comm, client, handle = make_env()
    session = deployment.reconfigure(
        comm.comm_id, ring=[2, 1, 0], delays=[0.0, 0.0, 5.0], barrier_timeout=1.0
    )
    with pytest.raises(ReconfigurationError, match="timed out"):
        deployment.run()
    assert session.failed and deployment.reconfig._active == {}
