"""Service communicator and collective-instance lifecycle tests."""

import numpy as np
import pytest

from repro.cluster.specs import testbed_cluster
from repro.collectives.types import Collective, ReduceOp
from repro.core.deployment import MccsDeployment
from repro.core.strategy import default_strategy
from repro.netsim.units import MB


@pytest.fixture
def env():
    cluster = testbed_cluster()
    deployment = MccsDeployment(cluster)
    gpus = [cluster.hosts[h].gpus[0] for h in range(4)]
    comm = deployment.create_communicator("app", gpus)
    client = deployment.connect("app")
    return cluster, deployment, comm, client, client.adopt_communicator(comm.comm_id)


def test_communicator_has_service_stream(env):
    cluster, deployment, comm, client, handle = env
    assert comm.stream.name.startswith(f"comm{comm.comm_id}")
    assert comm.stream.idle


def test_sequence_numbers_increase(env):
    cluster, deployment, comm, client, handle = env
    a = client.all_reduce(handle, 1 * MB)
    b = client.all_gather(handle, 1 * MB)
    assert (a.seq, b.seq) == (0, 1)
    deployment.run()


def test_instance_duration_and_consistency(env):
    cluster, deployment, comm, client, handle = env
    op = client.all_reduce(handle, 8 * MB)
    with pytest.raises(ValueError):
        op.instance.duration()
    deployment.run()
    assert op.instance.duration() > 0
    assert op.instance.consistent


def test_latency_precedes_flow_injection(env):
    cluster, deployment, comm, client, handle = env
    op = client.all_reduce(handle, 1 * MB)
    deployment.run()
    fixed = comm.latency.collective_latency(6)  # 2*(4-1) steps
    assert op.instance.start_time == pytest.approx(fixed)


def test_all_collective_kinds_complete(env):
    cluster, deployment, comm, client, handle = env
    ops = [
        client.all_reduce(handle, 4 * MB),
        client.all_gather(handle, 4 * MB),
        client.reduce_scatter(handle, 1 * MB),
        client.broadcast(handle, 4 * MB, root=2),
        client.reduce(handle, 4 * MB, root=1),
    ]
    deployment.run()
    assert all(op.completed for op in ops)


def test_describe_snapshot(env):
    cluster, deployment, comm, client, handle = env
    info = comm.describe()
    assert info["app_id"] == "app"
    assert info["ring"] == [0, 1, 2, 3]
    assert info["hosts"] == [0, 1, 2, 3]
    assert info["version"] == 0


def test_strategy_world_must_match():
    cluster = testbed_cluster()
    deployment = MccsDeployment(cluster)
    gpus = [cluster.hosts[h].gpus[0] for h in range(4)]
    with pytest.raises(ValueError):
        deployment.create_communicator("app", gpus, strategy=default_strategy(3))


def test_data_plane_respects_reduce_op(env):
    cluster, deployment, comm, client, handle = env
    gpus = comm.gpus
    sends = [client.alloc(g, 64) for g in gpus]
    recvs = [client.alloc(g, 64) for g in gpus]
    for i, b in enumerate(sends):
        b.view(np.float32)[:] = float(i + 1)
    op = client.all_reduce(handle, 64, send=sends, recv=recvs, op=ReduceOp.MAX)
    deployment.run()
    assert all(np.allclose(r.view(np.float32), 4.0) for r in recvs)


def test_intra_host_communicator(env):
    """A communicator entirely within one host uses the local channel."""
    cluster, deployment, comm, client, handle = env
    gpus = cluster.hosts[0].gpus
    comm2 = deployment.create_communicator("app", gpus)
    handle2 = client.adopt_communicator(comm2.comm_id)
    op = client.all_reduce(handle2, 8 * MB)
    deployment.run()
    assert op.completed
    for flow in op.instance.__dict__.get("flows", []):  # no flows attr; check via sim
        pass
    # local-only: duration bounded by local bandwidth (25 GB/s), far less
    # than what the 6.25 GB/s NIC path would need.
    assert op.duration() < 8 * MB / 6.25e9 * 1.5 + 1e-3


# -- instance lifetime: the in-flight map -----------------------------------------
def test_inflight_map_holds_unfinished_collectives_only(env):
    cluster, deployment, comm, client, handle = env
    gpus = comm.gpus
    sends = [client.alloc(g, 1 * MB) for g in gpus]
    recvs = [client.alloc(g, 1 * MB) for g in gpus]
    ops = [
        client.all_reduce(handle, 1 * MB, send=sends, recv=recvs)
        for _ in range(3)
    ]
    assert list(comm.inflight) == [0, 1, 2]
    assert [comm.inflight[op.seq] for op in ops] == [op.instance for op in ops]
    assert comm.launch_frontier() == 0  # seq 0 launched, 1 and 2 queued
    first = ops[0].instance
    first.on_complete = lambda inst, now: seen.append(list(comm.inflight))
    seen = []
    deployment.run()
    # Out of the map before its waiters woke; the stream had not started
    # the next kernel yet.
    assert seen == [[1, 2]]
    assert comm.inflight == {}
    assert comm.launch_frontier() == 2
    # A finished instance belongs to the tenant's handle and keeps the
    # outcome only: no buffer views, kernel, callback or IPC export.
    for op in ops:
        inst = op.instance
        assert op.completed and inst.duration() > 0 and inst.consistent
        assert inst.views is None
        assert inst.kernel is None and inst.on_complete is None
        assert inst.done_handle is None


def test_comm_abort_survives_the_cascade_through_the_stream(env):
    """Aborting seq k completes its kernel; the stream starts k+1, whose
    fan-out sees the dead communicator and aborts it — all before the
    abort loop reaches k+1, whose seq has already been retired by then."""
    from repro.errors import CommunicatorError

    cluster, deployment, comm, client, handle = env
    ops = [client.all_reduce(handle, 8 * MB) for _ in range(4)]
    deployment.run(until=1e-4)
    assert list(comm.inflight) == [0, 1, 2, 3]
    aborted_in = []
    for op in ops:
        op.instance.on_complete = lambda inst, now: aborted_in.append(inst.seq)
    error = CommunicatorError("gave up")
    comm.abort(error)
    # Each exactly once; innermost first, because a kernel completes (and
    # the stream moves on) before its own waiters are woken.
    assert aborted_in == [3, 2, 1, 0]
    assert comm.inflight == {}
    assert all(op.failed and op.instance.error is error for op in ops)
    assert cluster.sim.active_flow_count() == 0
    deployment.run()
    with pytest.raises(CommunicatorError):
        client.all_reduce(handle, 1 * MB)


def test_collective_terminated_inside_the_issue_call(env):
    """A dead peer proxy (no recovery armed) aborts the collective before
    handle_collective returns: the tenant still gets its typed handle, no
    completion event is exported, nothing stays in flight."""
    from repro.errors import ServiceCrashedError

    cluster, deployment, comm, client, handle = env
    deployment.crash_service(comm.gpus[2].host_id)
    exports = sum(len(host.ipc._events) for host in cluster.hosts)
    stream = client.create_stream(comm.gpus[0])
    op = client.all_reduce(handle, 1 * MB, stream=stream)
    assert op.failed and not op.pending
    assert isinstance(op.instance.error, ServiceCrashedError)
    assert comm.inflight == {}
    assert sum(len(host.ipc._events) for host in cluster.hosts) == exports
    deployment.run()
    assert stream.idle
