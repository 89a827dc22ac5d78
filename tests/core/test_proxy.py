"""Proxy engine unit tests (launch ordering, holding, registration)."""

import pytest

from repro.cluster.specs import testbed_cluster
from repro.core.deployment import MccsDeployment
from repro.netsim.errors import ReconfigurationError
from repro.netsim.units import MB


@pytest.fixture
def env():
    cluster = testbed_cluster()
    deployment = MccsDeployment(cluster)
    gpus = [cluster.hosts[h].gpus[0] for h in range(3)]
    comm = deployment.create_communicator("app", gpus)
    client = deployment.connect("app")
    return cluster, deployment, comm, client.adopt_communicator(comm.comm_id), client


def test_one_proxy_per_gpu(env):
    cluster, deployment, comm, handle, client = env
    service = deployment.service_of(0)
    assert set(service.proxies) == {g.global_id for g in cluster.hosts[0].gpus}


def test_proxy_tracks_launched_seq(env):
    cluster, deployment, comm, handle, client = env
    proxies = deployment.proxies_of(comm)
    assert proxies[0].launched_seq(comm.comm_id, 0) == -1
    client.all_reduce(handle, 1 * MB)
    deployment.run()
    assert all(
        p.launched_seq(comm.comm_id, r) == 0 for r, p in enumerate(proxies)
    )


def test_proxies_shared_between_communicators(env):
    """A GPU's proxy handles every communicator including that GPU."""
    cluster, deployment, comm, handle, client = env
    gpus2 = [cluster.hosts[h].gpus[0] for h in range(3)]
    comm2 = deployment.create_communicator("app", gpus2)
    proxy = deployment.proxies_of(comm)[0]
    assert proxy.handles(comm.comm_id, 0)
    assert proxy.handles(comm2.comm_id, 0)


def test_register_rejects_wrong_gpu(env):
    cluster, deployment, comm, handle, client = env
    wrong_proxy = deployment.service_of(3).proxy_for(cluster.hosts[3].gpus[0].global_id)
    with pytest.raises(ValueError):
        wrong_proxy.register(comm, 0)


def test_state_lookup_unknown_rank(env):
    cluster, deployment, comm, handle, client = env
    proxy = deployment.proxies_of(comm)[0]
    with pytest.raises(KeyError):
        proxy.state(comm.comm_id, 99)


def test_unregister(env):
    cluster, deployment, comm, handle, client = env
    proxy = deployment.proxies_of(comm)[0]
    proxy.unregister(comm, 0)
    assert not proxy.handles(comm.comm_id, 0)


def test_out_of_order_launch_rejected(env):
    cluster, deployment, comm, handle, client = env
    from repro.core.communicator import CollectiveInstance
    from repro.collectives.types import Collective

    proxy = deployment.proxies_of(comm)[0]
    trace = deployment.telemetry().causal.open(
        0.0, tenant=comm.app_id, comm_id=f"comm{comm.comm_id}", seq=5,
        kind="all_reduce", nbytes=100,
    )
    bogus = CollectiveInstance(
        comm=comm, seq=5, kind=Collective.ALL_REDUCE, out_bytes=100, trace=trace
    )
    with pytest.raises(ReconfigurationError):
        proxy.request_launch(0, bogus)


def test_launch_counter(env):
    cluster, deployment, comm, handle, client = env
    proxy = deployment.proxies_of(comm)[0]
    before = proxy.launches
    client.all_reduce(handle, 1 * MB)
    client.all_reduce(handle, 1 * MB)
    deployment.run()
    assert proxy.launches == before + 2
