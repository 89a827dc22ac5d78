"""P2P transfers and provider-side network monitoring (§5 extensions)."""

import numpy as np
import pytest

from repro.cluster.specs import testbed_cluster
from repro.core.deployment import MccsDeployment
from repro.netsim.errors import CommunicatorError, InvalidBufferError
from repro.netsim.units import MB


@pytest.fixture
def env():
    cluster = testbed_cluster()
    deployment = MccsDeployment(cluster)
    client = deployment.connect("app")
    gpus = [cluster.hosts[h].gpus[0] for h in range(4)]
    comm = client.create_communicator(gpus)
    return cluster, deployment, client, comm, gpus


def test_p2p_moves_data(env):
    cluster, deployment, client, comm, gpus = env
    src = client.alloc(gpus[1], 256)
    dst = client.alloc(gpus[3], 256)
    src.view(np.float32)[:] = 42.0
    done = client.send_recv(comm, 1, 3, 256, send=src, recv=dst)
    deployment.run()
    assert done.fired
    assert np.allclose(dst.view(np.float32), 42.0)


def test_p2p_timing_uses_network(env):
    cluster, deployment, client, comm, gpus = env
    start = cluster.sim.now
    done = client.send_recv(comm, 0, 2, 64 * MB)  # cross-rack at 6.25 GB/s
    deployment.run()
    elapsed = cluster.sim.now - start
    assert elapsed >= 64 * MB / 6.25e9


def test_p2p_serializes_with_collectives(env):
    cluster, deployment, client, comm, gpus = env
    op = client.all_reduce(comm, 32 * MB)
    marks = []
    done = client.send_recv(comm, 0, 1, 1 * MB)
    done.on_fire(lambda: marks.append(cluster.sim.now))
    deployment.run()
    assert marks[0] >= op.end_time  # stream order: AR first, then P2P


def test_p2p_stream_integration(env):
    cluster, deployment, client, comm, gpus = env
    stream = client.create_stream(gpus[0])
    stream.compute(5e-3)
    client.send_recv(comm, 0, 1, 1 * MB, stream=stream)
    marks = []
    stream.add_callback(lambda: marks.append(cluster.sim.now))
    deployment.run()
    assert marks[0] >= 5e-3 + 1 * MB / 6.25e9


def test_p2p_validates_ranks(env):
    cluster, deployment, client, comm, gpus = env
    with pytest.raises(CommunicatorError):
        client.send_recv(comm, 0, 0, 64)
    with pytest.raises(CommunicatorError):
        client.send_recv(comm, 0, 9, 64)
    with pytest.raises(CommunicatorError):
        client.send_recv(comm, 0, 1, 0)


def test_p2p_validates_buffers(env):
    cluster, deployment, client, comm, gpus = env
    src = client.alloc(gpus[0], 64)
    with pytest.raises(InvalidBufferError):
        client.send_recv(comm, 0, 1, 128, send=src)


def test_p2p_intra_host(env):
    cluster, deployment, client, comm, gpus = env
    gpus0 = cluster.hosts[0].gpus
    comm2 = client.create_communicator(gpus0)
    src = client.alloc(gpus0[0], 128)
    dst = client.alloc(gpus0[1], 128)
    src.view(np.float32)[:] = 7.0
    client.send_recv(comm2, 0, 1, 128, send=src, recv=dst)
    deployment.run()
    assert np.allclose(dst.view(np.float32), 7.0)


# -- monitoring ---------------------------------------------------------------
def test_network_utilization_reports_busy_links(env):
    cluster, deployment, client, comm, gpus = env
    client.all_reduce(comm, 256 * MB)
    deployment.run(until=0.02)  # mid-flight
    utilization = deployment.network_utilization(min_utilization=0.5)
    assert utilization  # the ring is saturating its NIC links
    assert all(0.5 <= u <= 1.0 + 1e-9 for u in utilization.values())
    deployment.run()
    assert deployment.network_utilization() == {}


def test_utilization_respects_threshold(env):
    cluster, deployment, client, comm, gpus = env
    client.all_reduce(comm, 256 * MB)
    deployment.run(until=0.02)
    everything = deployment.network_utilization()
    hot_only = deployment.network_utilization(min_utilization=0.9)
    assert set(hot_only) <= set(everything)


# -- P2P failure surface -------------------------------------------------------
def _p2p_flow(cluster):
    [flow] = cluster.sim.active_flows()
    return flow


def test_failed_p2p_drains_the_stream(env):
    """A link dying under a send_recv fails that transfer alone: its
    kernel completes, so the communicator's stream drains and the next
    collective runs.  (The parent injected with no ``on_fail``: the kernel
    stayed incomplete and every later op on the communicator hung.)"""
    cluster, deployment, client, comm, gpus = env
    done = client.send_recv(comm, 0, 2, 64 * MB)
    deployment.run(until=0.002)
    link = _p2p_flow(cluster).path[1]
    cluster.sim.fail_link(link)
    deployment.run(until=0.003)
    assert done.fired  # waiters unblock; the bytes did not arrive
    assert cluster.sim.active_flows() == []
    [event] = deployment.telemetry().events.events("p2p_failed")
    assert event.attrs["comm"] == comm.comm_id and link in event.message
    cluster.sim.restore_link(link)
    svc = deployment.communicator(comm.comm_id)
    op = client.all_reduce(comm, 1 * MB)
    deployment.run()
    assert op.completed and not svc.inflight
    # Nothing the failed transfer held is still held.
    assert svc.datapath.live_versions() == [svc.strategy.version]
    assert sum(len(host.ipc._events) for host in cluster.hosts) == 1


def test_p2p_over_a_down_link_fails_typed_not_the_event_loop(env):
    """A send_recv whose cached connection crosses a link that has since
    gone down is a failed transfer, not a ``LinkDownError`` out of
    ``sim.run()`` that takes every tenant's simulation with it."""
    cluster, deployment, client, comm, gpus = env
    client.send_recv(comm, 0, 2, 1 * MB)
    deployment.run(until=0.0002)
    link = _p2p_flow(cluster).path[1]
    deployment.run()  # the connection 0 -> 2 is now cached
    cluster.sim.fail_link(link)
    done = client.send_recv(comm, 0, 2, 1 * MB)
    deployment.run()
    assert done.fired
    [event] = deployment.telemetry().events.events("p2p_failed")
    assert link in event.message
    cluster.sim.restore_link(link)
    op = client.all_reduce(comm, 1 * MB)
    deployment.run()
    assert op.completed
