"""What a steady-state collective reuses, and what makes it look again.

A repeated collective reuses three things the service proved or built
before: the communicator's views record (the checked buffer views, keyed
on the tenant, the refs, the layout, the rank set and every rank's
service and memory generation), the executor run bound to those views
(kept in the record while its plan, ring order and reduce op hold, its
staging views released when the deployment's staging buffer is
replaced) and the connection table's routed batches (each rank's flows,
kept until the routing epoch moves or the table is torn down).  Each
test here issues two collectives that reuse them, changes one thing,
and checks that the next collective sees the change: a freed buffer,
another tenant, a partial alias, a restarted or upgraded service, a new
rank set, a restored link, a new strategy version, a new ring order, a
new reduce op, a staging buffer grown by another communicator.
"""

import numpy as np
import pytest

from repro.collectives.executor import ExecutionPlan
from repro.collectives.types import Collective, ReduceOp
from repro.core.memory import MemoryManager
from repro.core.messages import CollectiveRequest
from repro.errors import InvalidBufferError

NBYTES = 4096


@pytest.fixture
def checks(monkeypatch):
    """Every buffer ref the service checks, in order."""
    seen = []
    validate = MemoryManager.validate

    def counted(self, app_id, ref):
        seen.append(ref)
        return validate(self, app_id, ref)

    monkeypatch.setattr(MemoryManager, "validate", counted)
    return seen


@pytest.fixture
def binds(monkeypatch):
    """Every ``ExecutionPlan.bind`` call's ``(plan, order, op)``."""
    seen = []
    bind = ExecutionPlan.bind

    def counted(self, inputs, op, order, out, staging):
        seen.append((self, order, op))
        return bind(self, inputs, op, order, out, staging)

    monkeypatch.setattr(ExecutionPlan, "bind", counted)
    return seen


@pytest.fixture
def launches(deployment, monkeypatch):
    """Every ``(nbytes, path, channel, rank)`` flow put into the network."""
    flows = []
    add_flows = deployment.sim.add_flows

    def recorded(batch, **kw):
        batch = list(batch)
        flows.extend(batch)
        return add_flows(batch, **kw)

    monkeypatch.setattr(deployment.sim, "add_flows", recorded)
    return flows


class Tenant:
    """One tenant's communicator over ``gpus`` with filled send buffers."""

    def __init__(self, deployment, gpus, app="A"):
        self.deployment = deployment
        self.client = deployment.connect(app)
        self.comm = self.client.create_communicator(gpus)
        self.sends = [self.client.alloc(g, NBYTES) for g in gpus]
        self.recvs = [self.client.alloc(g, NBYTES) for g in gpus]
        for rank, buf in enumerate(self.sends):
            buf.view(np.float32)[:] = rank + 1

    @property
    def state(self):
        return self.deployment.communicator(self.comm.comm_id)

    def all_reduce(self, recv=None, op=ReduceOp.SUM):
        recv = recv or self.recvs
        for buf in recv:
            buf.view(np.float32)[:] = 0
        handle = self.client.all_reduce(self.comm, NBYTES, send=self.sends, recv=recv, op=op)
        self.deployment.run()
        assert handle.completed
        values = range(1, self.comm.world + 1)
        want = max(values) if op is ReduceOp.MAX else sum(values)
        for buf in recv:
            assert np.all(buf.view(np.float32) == want)

    def hits(self):
        """Two identical collectives: the second reuses what the first
        proved."""
        self.all_reduce()
        self.all_reduce()


def expected_paths(state, flows):
    """Each flow's path must be its edge's connection in the current
    version's table (a ring all-reduce sends to the ring's next rank)."""
    table, _ = state.datapath.table_for(state.strategy, state.gpus)
    order = state.strategy.ring.order
    for _nbytes, path, channel, rank in flows:
        dst = order[(order.index(rank) + 1) % state.world]
        assert path == table.connection(
            state.gpus[rank], state.gpus[dst], channel
        ).path
    return table


def test_a_freed_and_reallocated_buffer_is_checked_again(deployment, eight_gpus, checks):
    tenant = Tenant(deployment, eight_gpus)
    tenant.hits()
    client, stale = tenant.client, tenant.recvs[3]
    client.free(stale)
    fresh = client.alloc(eight_gpus[3], NBYTES)
    with pytest.raises(InvalidBufferError, match=f"unknown buffer id {stale.buffer_id}"):
        client.all_reduce(tenant.comm, NBYTES, send=tenant.sends, recv=tenant.recvs)
    recvs = tenant.recvs[:3] + [fresh] + tenant.recvs[4:]
    del checks[:]
    tenant.all_reduce(recv=recvs)
    assert fresh.ref() in checks and len(checks) == 2 * tenant.comm.world


def test_another_tenant_may_not_name_the_refs(deployment, eight_gpus, monkeypatch):
    owner = Tenant(deployment, eight_gpus)
    owner.hits()
    other = deployment.connect("B")
    comm = other.create_communicator(eight_gpus)
    send = tuple(buf.ref() for buf in owner.sends)
    recv = tuple(buf.ref() for buf in owner.recvs)
    with pytest.raises(InvalidBufferError, match="owned by 'A'"):
        other.all_reduce(comm, NBYTES, send=send, recv=recv)
    # Nor on the owner's communicator, whose last check passed for exactly
    # this request: with the ownership check out of the way, the buffer
    # check still runs for the other tenant.
    monkeypatch.setattr(
        deployment, "_owned_comm", lambda app_id, comm_id: deployment.communicator(comm_id)
    )
    request = CollectiveRequest(
        comm_id=owner.comm.comm_id, kind=Collective.ALL_REDUCE, out_bytes=NBYTES,
        send_refs=send, recv_refs=recv,
    )
    with pytest.raises(InvalidBufferError, match="owned by 'A'"):
        deployment.handle_collective("B", request)
    # The owner's record is untouched by the refusals.
    owner.all_reduce()


def test_refs_changed_to_a_partial_alias_are_refused(deployment, eight_gpus):
    tenant = Tenant(deployment, eight_gpus)
    tenant.hits()
    client = tenant.client
    halves = [client.alloc(g, 2 * NBYTES) for g in eight_gpus]
    send = [buf.ref(0, NBYTES) for buf in halves]
    for rank, buf in enumerate(halves):
        buf.view(np.float32, 0, NBYTES // 4)[:] = rank + 1
    op = client.all_reduce(
        tenant.comm, NBYTES, send=send, recv=[b.ref(NBYTES, NBYTES) for b in halves]
    )
    deployment.run()
    assert op.completed
    overlapping = [b.ref(NBYTES // 2, NBYTES) for b in halves]
    with pytest.raises(InvalidBufferError, match="overlaps"):
        client.all_reduce(tenant.comm, NBYTES, send=send, recv=overlapping)


@pytest.mark.parametrize("change", ["restart", "upgrade"])
def test_a_new_service_generation_checks_again(deployment, eight_gpus, checks, change):
    tenant = Tenant(deployment, eight_gpus)
    tenant.hits()
    service = deployment.service_of(1)
    if change == "restart":
        deployment.crash_service(1)
        deployment.restart_service(1)
    else:
        session = service.upgrade()
        deployment.run()
        assert session.done
    assert service.generation == 1
    del checks[:]
    tenant.all_reduce()
    assert len(checks) == 2 * tenant.comm.world


def test_a_membership_change_checks_again(cluster, deployment):
    """Shrink rank 0 away and grow its GPU back: the same GPUs and the
    same world, each host's service and memory generations unchanged,
    but rank 0 now lives on host 1, which does not hold rank 0's old
    buffer."""
    gpus = [cluster.hosts[h].gpus[0] for h in range(3)]
    tenant = Tenant(deployment, gpus)
    tenant.hits()
    elastic, comm_id = deployment.elastic, tenant.comm.comm_id
    for change in (lambda: elastic.shrink(comm_id, [0]), lambda: elastic.grow(comm_id, gpus[:1])):
        record = change()
        deployment.run()
        assert record.state == "done"
    assert tenant.state.gpus == gpus[1:] + gpus[:1]
    with pytest.raises(InvalidBufferError, match="unknown buffer id"):
        tenant.client.all_reduce(tenant.comm, NBYTES, send=tenant.sends, recv=tenant.recvs)


def test_a_restored_link_reroutes_the_next_launch(deployment, eight_gpus, launches):
    sim = deployment.sim
    link = "leaf1->spine1"
    sim.fail_link(link)
    tenant = Tenant(deployment, eight_gpus)
    tenant.hits()
    assert launches and not any(link in path for _, path, _, _ in launches)
    epoch = sim.topology.routing_epoch
    sim.restore_link(link)
    assert sim.topology.routing_epoch == epoch + 1
    del launches[:]
    tenant.all_reduce()
    expected_paths(tenant.state, launches)
    # The re-resolved pins use the restored link again.
    assert any(link in path for _, path, _, _ in launches)


def test_a_reconfiguration_launches_on_the_new_version(deployment, eight_gpus, launches):
    tenant = Tenant(deployment, eight_gpus)
    tenant.hits()
    before = set(launches)
    state = tenant.state
    version = state.strategy.version
    order = list(state.strategy.ring.order)
    session = deployment.reconfigure(tenant.comm.comm_id, ring=order[::-1])
    deployment.run()
    assert session.done and state.strategy.version == version + 1
    del launches[:]
    tenant.all_reduce()
    table = expected_paths(state, launches)
    assert state.datapath.live_versions() == [version + 1]
    assert len(table) == len(launches) and set(launches) != before


def test_a_buffer_on_another_gpu_of_the_rank_host_is_refused(cluster, deployment):
    """GPUs 0 and 1 share host 0, so one memory manager holds both; the
    buffer must still be on the rank's own GPU."""
    gpus = [cluster.hosts[0].gpus[0], cluster.hosts[1].gpus[0]]
    tenant = Tenant(deployment, gpus)
    client, other = tenant.client, cluster.hosts[0].gpus[1]
    send = [client.alloc(other, NBYTES)] + tenant.sends[1:]
    recv = [client.alloc(other, NBYTES)] + tenant.recvs[1:]
    with pytest.raises(InvalidBufferError, match="not GPU"):
        client.all_reduce(tenant.comm, NBYTES, send=send, recv=recv)
    assert tenant.state.views_record is None  # nothing was accepted
    tenant.hits()


def test_a_repeated_collective_replays_its_bound_run(deployment, eight_gpus, binds):
    tenant = Tenant(deployment, eight_gpus)
    tenant.all_reduce()
    record = tenant.state.views_record
    bound = record.bound
    tenant.all_reduce()
    tenant.all_reduce()
    assert len(binds) == 1
    assert tenant.state.views_record is record and record.bound is bound


def test_a_freed_and_reallocated_buffer_binds_again(deployment, eight_gpus, binds):
    tenant = Tenant(deployment, eight_gpus)
    tenant.hits()
    old = tenant.state.views_record.bound
    client = tenant.client
    client.free(tenant.recvs[3])
    assert tenant.state.views_record is None
    recvs = tenant.recvs[:3] + [client.alloc(eight_gpus[3], NBYTES)] + tenant.recvs[4:]
    tenant.all_reduce(recv=recvs)
    assert len(binds) == 2 and tenant.state.views_record.bound is not old


def test_a_new_ring_order_binds_again(deployment, eight_gpus, binds):
    tenant = Tenant(deployment, eight_gpus)
    tenant.hits()
    state = tenant.state
    record = state.views_record
    order = list(state.strategy.ring.order)
    session = deployment.reconfigure(tenant.comm.comm_id, ring=order[::-1])
    deployment.run()
    assert session.done
    tenant.hits()
    # The same plan (compiled in position space), relabelled: one rebind.
    assert [entry[1] for entry in binds] == [tuple(order), tuple(order[::-1])]
    assert binds[0][0] is binds[1][0]
    assert state.views_record is record and record.bound_key[1] == tuple(order[::-1])


def test_a_new_reduce_op_binds_again(deployment, eight_gpus, binds):
    tenant = Tenant(deployment, eight_gpus)
    tenant.hits()
    tenant.all_reduce(op=ReduceOp.MAX)
    tenant.all_reduce(op=ReduceOp.MAX)
    tenant.all_reduce()
    assert [entry[2] for entry in binds] == [ReduceOp.SUM, ReduceOp.MAX, ReduceOp.SUM]


def test_staging_grown_by_another_communicator_is_viewed_again(deployment, eight_gpus):
    """A reduce-scatter keeps its partial sums in the deployment's staging
    buffer, so its bound run views it.  A larger reduce-scatter on another
    communicator replaces the buffer: the first run's calls are released
    (nothing pins the old buffer) and resolved again, on the new buffer,
    by its next apply."""
    small = Tenant(deployment, eight_gpus)
    client, world = small.client, len(eight_gpus)
    other = client.create_communicator(eight_gpus)

    def reduce_scatter(comm, nbytes):
        sends = [client.alloc(g, nbytes * world) for g in eight_gpus]
        recvs = [client.alloc(g, nbytes) for g in eight_gpus]
        for rank, buf in enumerate(sends):
            buf.view(np.float32)[:] = rank + 1

        def run():
            for buf in recvs:
                buf.view(np.float32)[:] = 0
            handle = client.reduce_scatter(comm, nbytes, send=sends, recv=recvs)
            deployment.run()
            assert handle.completed
            for buf in recvs:
                assert np.all(buf.view(np.float32) == world * (world + 1) // 2)

        return run

    first, larger = reduce_scatter(small.comm, NBYTES), reduce_scatter(other, 4 * NBYTES)
    first()
    bound = small.state.views_record.bound
    staging = deployment.staging
    held = staging.nbytes
    assert held > 0 and bound._calls is not None
    larger()
    assert staging.nbytes > held and bound._calls is None
    first()
    assert small.state.views_record.bound is bound
    (buffer,) = staging.arrays(1, staging.nbytes, np.dtype(np.uint8))
    pool_views = [
        view for lane in bound._calls for call in lane for view in call[1:]
        if view is not None and np.shares_memory(view, buffer)
    ]
    assert pool_views
