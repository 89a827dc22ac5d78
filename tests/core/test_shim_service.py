"""Shim library and per-host service tests (the §4.1 interface)."""

import numpy as np
import pytest

from repro.cluster.specs import testbed_cluster
from repro.core.deployment import MccsDeployment
from repro.core.messages import AllocateRequest, Request
from repro.netsim.errors import CommunicatorError, InvalidBufferError, MccsError
from repro.netsim.units import MB


@pytest.fixture
def env():
    cluster = testbed_cluster()
    deployment = MccsDeployment(cluster)
    client = deployment.connect("app")
    return cluster, deployment, client


def test_alloc_opens_ipc_handle(env):
    cluster, deployment, client = env
    gpu = cluster.hosts[0].gpus[0]
    buf = client.alloc(gpu, 1024)
    assert buf.size == 1024
    assert cluster.hosts[0].ipc.is_open(buf.handle)
    # The device memory is the service's allocation, shared by handle.
    service_alloc = deployment.service_of(0).memory.allocations()
    assert service_alloc[buf.buffer_id].app_id == "app"


def test_free_closes_handle_then_forwards(env):
    cluster, deployment, client = env
    gpu = cluster.hosts[0].gpus[0]
    buf = client.alloc(gpu, 1024)
    client.free(buf)
    assert not cluster.hosts[0].ipc.is_open(buf.handle)
    memory = deployment.service_of(0).memory
    assert memory.bytes_allocated - memory.bytes_freed == 0
    with pytest.raises(MccsError):
        client.free(buf)


def test_alloc_routes_to_owning_host(env):
    cluster, deployment, client = env
    gpu = cluster.hosts[2].gpus[1]
    client.alloc(gpu, 512)
    assert deployment.service_of(2).memory.bytes_allocated == 512
    assert deployment.service_of(0).memory.bytes_allocated == 0


def test_misrouted_allocation_rejected(env):
    cluster, deployment, client = env
    service = deployment.service_of(0)
    with pytest.raises(MccsError):
        service.allocate("app", cluster.hosts[1].gpus[0].global_id, 64)


def test_buffer_view_and_ref(env):
    cluster, deployment, client = env
    buf = client.alloc(cluster.hosts[0].gpus[0], 256)
    buf.view(np.float32)[:] = 3.0
    ref = buf.ref(offset=16, nbytes=64)
    assert ref.buffer_id == buf.buffer_id
    assert (ref.offset, ref.nbytes) == (16, 64)
    assert buf.ref().nbytes == 256


def test_create_and_destroy_communicator(env):
    cluster, deployment, client = env
    gpus = [cluster.hosts[h].gpus[0] for h in range(4)]
    comm = client.create_communicator(gpus)
    assert comm.world == 4
    assert deployment.communicator(comm.comm_id).app_id == "app"
    client.destroy_communicator(comm)
    with pytest.raises(CommunicatorError):
        deployment.communicator(comm.comm_id)


def test_adopt_enforces_ownership(env):
    cluster, deployment, client = env
    gpus = [cluster.hosts[h].gpus[0] for h in range(4)]
    comm = deployment.create_communicator("someone-else", gpus)
    with pytest.raises(MccsError):
        client.adopt_communicator(comm.comm_id)


def test_collective_on_foreign_communicator_rejected(env):
    cluster, deployment, client = env
    gpus = [cluster.hosts[h].gpus[0] for h in range(4)]
    other = deployment.create_communicator("other", gpus)
    from repro.core.messages import CollectiveRequest
    from repro.collectives.types import Collective

    with pytest.raises(CommunicatorError):
        deployment.handle_collective(
            "app",
            CollectiveRequest(comm_id=other.comm_id, kind=Collective.ALL_REDUCE, out_bytes=64),
        )


def test_collective_validates_send_buffer_sizes(env):
    cluster, deployment, client = env
    gpus = [cluster.hosts[h].gpus[0] for h in range(4)]
    comm = client.create_communicator(gpus)
    sends = [client.alloc(g, 64) for g in gpus]
    with pytest.raises(InvalidBufferError):
        # AllGather of 512 output bytes needs 128-byte inputs, not 64.
        client.all_gather(comm, 512, send=sends)


def test_collective_needs_one_buffer_per_rank(env):
    cluster, deployment, client = env
    gpus = [cluster.hosts[h].gpus[0] for h in range(4)]
    comm = client.create_communicator(gpus)
    sends = [client.alloc(gpus[0], 64)]
    with pytest.raises(InvalidBufferError):
        client.all_reduce(comm, 64, send=sends)


def test_zero_byte_collective_rejected(env):
    cluster, deployment, client = env
    gpus = [cluster.hosts[h].gpus[0] for h in range(4)]
    comm = client.create_communicator(gpus)
    with pytest.raises(CommunicatorError):
        client.all_reduce(comm, 0)


def test_stream_synchronization_full_dance(env):
    """Record-before / wait-after semantics across app and comm streams."""
    cluster, deployment, client = env
    gpus = [cluster.hosts[h].gpus[0] for h in range(4)]
    comm = client.create_communicator(gpus)
    stream = client.create_stream(gpus[0])
    stream.compute(7e-3, name="producer")
    op = client.all_reduce(comm, 4 * MB, stream=stream)
    consumed = []
    stream.add_callback(lambda: consumed.append(cluster.sim.now), name="consumer")
    deployment.run()
    assert op.instance.start_time >= 7e-3  # waited for the producer
    assert consumed[0] >= op.end_time - 1e-12  # consumer waited for the op


def test_collectives_serialize_on_comm_stream(env):
    cluster, deployment, client = env
    gpus = [cluster.hosts[h].gpus[0] for h in range(4)]
    comm = client.create_communicator(gpus)
    a = client.all_reduce(comm, 16 * MB)
    b = client.all_reduce(comm, 16 * MB)
    deployment.run()
    assert b.instance.start_time >= a.end_time - 1e-9


def test_frontend_counts_requests(env):
    cluster, deployment, client = env
    gpu = cluster.hosts[0].gpus[0]
    frontend = deployment.service_of(0).frontend_for("app", deployment)
    before = frontend.requests_handled
    client.alloc(gpu, 64)
    assert frontend.requests_handled == before + 1


def test_unknown_request_type_rejected(env):
    cluster, deployment, client = env

    class Strange(Request):
        pass

    frontend = deployment.service_of(0).frontend_for("app", deployment)
    with pytest.raises(MccsError):
        frontend.handle(Strange())


def test_on_complete_callback(env):
    cluster, deployment, client = env
    gpus = [cluster.hosts[h].gpus[0] for h in range(4)]
    comm = client.create_communicator(gpus)
    seen = []
    client.all_reduce(comm, 1 * MB, on_complete=lambda inst, t: seen.append(t))
    deployment.run()
    assert len(seen) == 1


# -- IPC event exports are closed by their exporter -------------------------------
def test_ipc_event_registry_is_flat_over_many_collectives(env):
    from repro.cluster.ipc import IpcError

    cluster, deployment, client = env
    gpus = [cluster.hosts[h].gpus[0] for h in range(4)]
    comm = client.create_communicator(gpus)
    stream = client.create_stream(gpus[0])
    ipc = cluster.hosts[gpus[0].host_id].ipc

    def serve(count):
        handles = []
        for k in range(count):
            # Alternate plain and stream-ordered issue (the latter exports
            # a pre-op snapshot from the shim side as well), plus p2p.
            if k % 3 == 0:
                client.send_recv(comm, 0, 2, 64 * 1024, stream=stream)
            op = client.all_reduce(
                comm, 64 * 1024, stream=stream if k % 2 else None
            )
            handles.append(op.instance.done_handle)
            deployment.run()
            assert op.completed
        return handles

    serve(5)
    exported = len(ipc._events)
    handles = serve(200)
    assert len(ipc._events) == exported == 1
    # What survives is the per-communicator event, still openable ...
    service_comm = deployment.communicator(comm.comm_id)
    assert ipc.open_event(service_comm.comm_event_handle) is comm.done_event
    # ... while a finished collective's handle is closed for good.
    assert all(handle is not None for handle in handles)
    with pytest.raises(IpcError):
        ipc.open_event(handles[-1])
    with pytest.raises(IpcError):
        ipc.close_event(handles[-1])
    client.destroy_communicator(comm)
    assert len(ipc._events) == 0
