"""Steady-state object census: nothing outlives its collective.

A long-lived service must not grow with the number of collectives it has
served.  Each case warms a deployment up until every bounded ring
(``MAX_SPANS``, ``MAX_EVENTS`` and ``DEFAULT_TRACE_CAPACITY``, patched
small here; the causal tracer's 512-trace ring, warmed past) is full, counts the live objects of the per-collective types with
``gc.get_objects()``, serves some more, and counts again: the difference
must be zero.  These are counts, not timings, so the test is exact.

What is *allowed* to grow, and is therefore not in ``PER_COLLECTIVE``:
one journal record per collective (see the retention table in
``docs/observability.md``).  Trace objects are *not* allowed to: a
``CausalTrace`` lives in the tracer's ring, a ``TraceRecord`` in its
communicator's ring until the communicator is destroyed, and the only
stored ``Span``s are the reconfiguration ones.  Nor are the gateway's
per-request objects (its ledger is counts plus a ring of settled
records), admission decisions (counters and events, no list) or finished
membership changes and upgrade sessions (a ring each, patched small here).
"""

import gc
import weakref
from collections import Counter

import numpy as np
from repro.baselines.nccl import NcclCommunicator
from repro.cluster.specs import testbed_cluster
from repro.collectives.types import Collective
from repro.core.admission import AdmissionPolicy
from repro.core.deployment import MccsDeployment
from repro.service import (
    GatewayClient,
    GatewayPolicy,
    InProcessTransport,
    ServiceGateway,
    TenantQuota,
)

#: Types of which a finished collective must leave no instance behind
#: (closures show up as ``function`` + ``cell``).
PER_COLLECTIVE = (
    "Flow",
    "FlowRecord",
    "_BoundRecorder",
    "RateSegment",
    "CausalTrace",
    "TraceRecord",
    "Span",
    "CollectiveInstance",
    "ClientCollective",
    "AsyncOp",
    "Event",
    "IpcEventHandle",
    "LaunchHandle",
    "CollectiveOp",
    "GatewayRecord",
    "GatewayRequest",
    "GatewayResponse",
    "AdmissionDecision",
    "MembershipChange",
    "UpgradeSession",
    "function",
    "cell",
    "method",
)

#: ``CausalTracer``'s default ``max_closed``: warm-ups serve more
#: collectives than this, so the closed-trace ring is full before the
#: first census.
CAUSAL_RING = 512
NBYTES = 16 * 1024


def census():
    gc.collect()
    counts = Counter(type(obj).__name__ for obj in gc.get_objects())
    return {name: counts.get(name, 0) for name in PER_COLLECTIVE}


def make_deployment(monkeypatch):
    # A deployment has no ring-size knobs; shrink the constants it reads.
    # Two stored spans per reconfiguration: the tenant cycles fill this.
    monkeypatch.setattr("repro.telemetry.hub.MAX_SPANS", 64)
    monkeypatch.setattr("repro.telemetry.hub.MAX_EVENTS", 64)
    monkeypatch.setattr("repro.core.communicator.DEFAULT_TRACE_CAPACITY", 32)
    cluster = testbed_cluster()
    return cluster, MccsDeployment(cluster)


def test_allreduce_loop_leaves_nothing_behind(monkeypatch):
    cluster, dep = make_deployment(monkeypatch)
    client = dep.connect("app")
    gpus = list(cluster.gpus)
    comm = client.create_communicator(gpus)
    sends = [client.alloc(gpu, NBYTES) for gpu in gpus]
    recvs = [client.alloc(gpu, NBYTES) for gpu in gpus]
    for k, buf in enumerate(sends):
        buf.view(np.float32)[:] = k

    def serve(count):
        for _ in range(count):
            op = client.all_reduce(comm, NBYTES, send=sends, recv=recvs)
            dep.run()
            assert op.completed

    serve(CAUSAL_RING + 40)
    before = census()
    serve(300)
    assert census() == before
    assert recvs[0].view(np.float32)[0] == sum(range(len(gpus)))
    # The per-host IPC registries hold live exports only: the two buffers
    # per GPU and the communicator-level event.
    assert sum(len(host.ipc._events) for host in cluster.hosts) == 1
    assert cluster.hosts[gpus[0].host_id].ipc.open_event(
        dep.communicator(comm.comm_id).comm_event_handle
    ) is comm.done_event
    assert all(not c.inflight for c in dep.communicators())


def test_nccl_baseline_loop_leaves_nothing_behind():
    """The baseline kept every ``LaunchHandle`` (pinning its flows) and
    every ``CollectiveOp`` in append-only lists nobody read; fig11 drives
    it for thousands of collectives."""
    cluster = testbed_cluster()
    comm = NcclCommunicator(cluster, list(cluster.gpus), algorithm="auto")
    data = [np.full(NBYTES // 4, float(k), np.float32) for k in range(comm.world)]
    kind = Collective.ALL_REDUCE
    assert comm._algorithm_for(kind, NBYTES) == "tree"
    assert comm._algorithm_for(kind, 64 * NBYTES) == "ring"

    def serve(count):
        for i in range(count):
            size = NBYTES if i % 2 else 64 * NBYTES
            op = comm.all_reduce(size, data=data if size == NBYTES else None)
            cluster.sim.run()
            assert op.completed
        return op

    serve(20)
    before = census()
    last = serve(100)
    del last
    assert census() == before


def tenant_cycle(dep, client, gpus):
    """create -> use -> reconfigure mid-stream -> free -> destroy."""
    comm = client.create_communicator(gpus)
    sends = [client.alloc(gpu, NBYTES) for gpu in gpus]
    recvs = [client.alloc(gpu, NBYTES) for gpu in gpus]
    ops = [
        client.all_reduce(comm, NBYTES, send=sends, recv=recvs)
        for _ in range(4)
    ]
    order = list(range(len(gpus)))
    dep.reconfigure(comm.comm_id, ring=order[1:] + order[:1])
    ops += [
        client.all_reduce(comm, NBYTES, send=sends, recv=recvs)
        for _ in range(4)
    ]
    dep.run()
    assert all(op.completed for op in ops)
    backing = weakref.ref(recvs[0].device_buffer.data)
    for buf in sends + recvs:
        client.free(buf)
    client.destroy_communicator(comm)
    return backing


def test_tenant_cycles_leave_nothing_behind(monkeypatch):
    cluster, dep = make_deployment(monkeypatch)
    client = dep.connect("app")
    gpus = list(cluster.gpus)[:6]
    for _ in range(CAUSAL_RING // 8 + 4):
        tenant_cycle(dep, client, gpus)
    before = census()
    backings = [tenant_cycle(dep, client, gpus) for _ in range(10)]
    assert census() == before
    # free + destroy really releases tenant memory: nothing the service
    # keeps (finished instances, traces, cached plans) pins the arrays.
    assert [ref() for ref in backings] == [None] * 10
    assert sum(len(host.ipc._events) for host in cluster.hosts) == 0
    assert sum(len(host.ipc._memory) for host in cluster.hosts) == 0
    assert dep.verify_journal() == []
    # A destroyed communicator takes its trace with it (the census above
    # already held ``TraceRecord`` flat across ten destroyed ones).
    assert dep.communicators() == []
    assert len(dep.telemetry().spans) == 64


def test_elastic_cycles_leave_nothing_behind(monkeypatch):
    """Grow then shrink back, each issued under traffic so the change has
    to wait for in-flight work: the wait's completion listener (and the
    ``_Operation``, record and callbacks it closes over) ends with it.
    A live upgrade rides every cycle; both finished-operation rings wrap."""
    monkeypatch.setattr("repro.core.elastic.HISTORY_KEPT", 32)
    monkeypatch.setattr("repro.core.service.UPGRADES_KEPT", 16)
    cluster, dep = make_deployment(monkeypatch)
    elastic = dep.enable_elasticity()
    client = dep.connect("app")
    gpus = list(cluster.gpus)
    comm = dep.communicator(client.create_communicator(gpus[:4]).comm_id)
    service = dep.service_of(gpus[0].host_id)
    waits = []
    upgrades = 0

    def cycle():
        nonlocal upgrades
        for change in (
            lambda: elastic.grow(comm.comm_id, [gpus[4]]),
            lambda: elastic.shrink(comm.comm_id, [4]),
        ):
            handle = client.adopt_communicator(comm.comm_id)
            ops = [client.all_reduce(handle, 64 * NBYTES) for _ in range(3)]
            record = change()
            dep.run(until=dep.sim.now + 1e-4)  # barrier resolved, ops not
            waits.append(len(comm.completion_listeners))
            dep.run()
            assert record.state == "done" and all(op.completed for op in ops)
        upgrades += 1
        session = service.upgrade("proxy")
        dep.run()
        assert session.done
        # A count of upgrades ever started: it does not fall as the ring wraps.
        assert dep.resilience_stats()["upgrades"] == upgrades

    listeners = len(comm.completion_listeners)
    for _ in range(CAUSAL_RING // 6 + 4):
        cycle()
    before = census()
    for _ in range(10):
        cycle()
    assert census() == before
    assert set(waits) == {listeners + 1}  # every change really waited...
    assert len(comm.completion_listeners) == listeners  # ...and let go
    assert elastic._inflight == {} and comm.world == 4
    # Both finished-operation rings were full at the first census.
    assert before["MembershipChange"] == len(elastic.history) == 32
    assert before["UpgradeSession"] == len(service.upgrades) == 16
    assert dep.verify_journal() == []


def test_gateway_requests_leave_nothing_behind(monkeypatch):
    cluster, dep = make_deployment(monkeypatch)
    admission = dep.configure_admission(AdmissionPolicy())
    gateway = ServiceGateway(
        dep, GatewayPolicy(queue_capacity=64, max_inflight=8)
    )
    account = gateway.register_tenant(
        "acme", TenantQuota(rate=1e6, burst=1e6)
    )
    client = GatewayClient(InProcessTransport(gateway), account.key.raw)
    created = client.create_comm([gpu.global_id for gpu in cluster.gpus][:4])
    dep.run()
    comm_id = created.response.body["comm_id"]
    statuses = Counter()

    def serve(count):
        for _ in range(count):
            client.collective(
                comm_id, NBYTES,
                on_response=lambda r: statuses.update([r.status]),
            )
            dep.run()

    serve(CAUSAL_RING + 40)
    before = census()
    stats_before = gateway.stats()
    serve(300)
    assert census() == before
    assert statuses == {200: CAUSAL_RING + 340}
    # The ledger still counts every request (so does admission), but it
    # is counts: the ring keeps the last few settled records, and those
    # keep scalars only.
    stats = gateway.stats()
    assert stats["requests"] == stats_before["requests"] + 300
    assert stats["by_state"] == {"ok": stats["requests"]}
    assert stats["executed"] == stats["requests"] == admission.admitted_total
    assert stats["refused"] == admission.shed_total == 0
    assert len(gateway.records) == gateway.records.capacity < stats["requests"]
    assert all(
        record.request is record.respond is record.session is None
        for record in gateway.records
    )
