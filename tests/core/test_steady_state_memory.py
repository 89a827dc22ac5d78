"""Steady-state object census: nothing outlives its collective.

A long-lived service must not grow with the number of collectives it has
served.  Each case warms a deployment up until every bounded ring
(``SESSIONS_KEPT``, ``MAX_EVENTS`` and ``DEFAULT_TRACE_CAPACITY``, patched
small here; the causal tracer's 512-trace ring, warmed past) is full, counts the live objects of the per-collective types with
``gc.get_objects()``, serves some more, and counts again: the difference
must be zero.  These are counts, not timings, so the test is exact.

Nothing per collective is allowed to grow.  The state journal
checkpoints itself (``CHECKPOINT_FLOOR``, patched small here), so its
length cycles under a steady load instead of rising: each census is
taken with the journal at the same length (``back_to``), and a
``JournalRecord`` that outlives its checkpoint shows up as growth.  Live
state is bounded too: a communicator keeps its current strategy only, so
reconfigurations, membership changes and upgrades leave the
``CollectiveStrategy`` count and the checkpoint flat (the elastic case),
and a destroyed communicator takes its tuner state and its joiners'
staging buffers with it (the churn case).  Trace objects are not allowed
to grow either: a ``CausalTrace`` lives in the tracer's ring, its flows
and rate history as columns (paths shared, one object per route), a ``TraceRecord`` in its
communicator's ring until the communicator is destroyed, a
``ReconfigSession`` in the hub's session ring, and no ``Span``,
``FlowRecord`` or ``RateSegment`` is stored at all (exports and queries
render them; a closed trace retains none).  Nor are the gateway's
per-request objects (its ledger is counts plus a ring of settled
records), admission decisions (counters and events, no list) or finished
membership changes and upgrade sessions (their callers own them).
The launch path's records are bounded as well: one views record per
communicator, dropped by a free or a destroy, and at most one routed
batch per rank of each live connection table (the last four cases).
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
from repro.core.journal import checkpoint, replay_journal
from repro.core.memory import MemoryManager
from repro.service import (
    GatewayClient,
    GatewayPolicy,
    InProcessTransport,
    ServiceGateway,
    TenantQuota,
)
from repro.transport.connections import ConnectionTable

#: Types of which a finished collective must leave no instance behind
#: (closures show up as ``function`` + ``cell``).
PER_COLLECTIVE = (
    "Flow",
    "FlowRecord",
    "RateSegment",
    "CausalTrace",
    "TraceRecord",
    "Span",
    "ReconfigSession",
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
    "JournalRecord",
    "CollectiveStrategy",
    "function",
    "cell",
    "method",
)

#: ``repro.telemetry.causal.MAX_CLOSED``: warm-ups serve more
#: collectives than this, so the closed-trace ring is full before the
#: first census.
CAUSAL_RING = 512
NBYTES = 16 * 1024


def census(names=PER_COLLECTIVE):
    gc.collect()
    counts = Counter(type(obj).__name__ for obj in gc.get_objects())
    return {name: counts.get(name, 0) for name in names}


def make_deployment(monkeypatch):
    # A deployment has no ring-size knobs; shrink the constants it reads.
    # One session per reconfiguration: the tenant cycles fill this.
    monkeypatch.setattr("repro.telemetry.hub.SESSIONS_KEPT", 32)
    monkeypatch.setattr("repro.telemetry.hub.MAX_EVENTS", 64)
    monkeypatch.setattr("repro.core.tracing.DEFAULT_TRACE_CAPACITY", 32)
    monkeypatch.setattr("repro.core.journal.CHECKPOINT_FLOOR", 64)
    cluster = testbed_cluster()
    return cluster, MccsDeployment(cluster)


def back_to(journal, length, serve_one):
    """Serve one unit at a time until ``journal`` is back at ``length``
    records; returns how many that took.  A self-checkpointing journal
    under a steady load comes back within one checkpoint period (under
    100 units at the patched floor); one that only grows never does, and
    the census then counts what it kept."""
    served = 0
    while len(journal) != length and served < 100:
        serve_one()
        served += 1
    return served


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
    before, length = census(), len(dep.journal)
    serve(300)
    back_to(dep.journal, length, lambda: serve(1))
    assert census() == before
    # A full ring of closed traces: columns only, no per-flow objects.
    assert before["FlowRecord"] == before["RateSegment"] == 0
    # Its per-flow and per-tenant maps hold flows in the network only.
    tracer = dep.telemetry().causal
    assert not tracer._owners and not tracer._tenant_flows
    # And it holds one path object per route, not a copy per flow.
    paths = [p for t in tracer.closed_traces() for a in t.attempts for p in a.paths]
    assert len(paths) > len(set(paths)) == len({id(p) for p in paths})
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
    before, length = census(), len(dep.journal)
    backings = [tenant_cycle(dep, client, gpus) for _ in range(10)]
    back_to(dep.journal, length, lambda: tenant_cycle(dep, client, gpus))
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
    assert len(dep.telemetry().sessions) == 32


def test_elastic_cycles_leave_nothing_behind(monkeypatch):
    """Grow then shrink back, each issued under traffic so the change has
    to wait for in-flight work: the wait's completion listener (and the
    record and callbacks it closes over) ends with it.  A live upgrade
    rides every cycle; nothing keeps a finished operation."""
    cluster, dep = make_deployment(monkeypatch)
    elastic = dep.elastic
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
        session = service.upgrade()
        dep.run()
        assert session.done
        # A count of upgrades ever started, kept without the sessions.
        assert dep.resilience_stats()["upgrades"] == upgrades

    listeners = len(comm.completion_listeners)
    for _ in range(CAUSAL_RING // 6 + 4):
        cycle()
    before, length = census(), len(dep.journal)
    for _ in range(10):
        cycle()
    back_to(dep.journal, length, cycle)
    # Each cycle commits five strategy versions; the communicator keeps
    # the current one.  The journal holds no communicator state, so the
    # checkpoint is empty.
    assert census() == before
    assert checkpoint(replay_journal(dep.journal.records())) == []
    assert set(waits) == {listeners + 1}  # every change really waited...
    assert len(comm.completion_listeners) == listeners  # ...and let go
    assert elastic._inflight == {} and comm.world == 4
    # No MembershipChange / UpgradeSession outlives its operation.
    assert before["MembershipChange"] == before["UpgradeSession"] == 0
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
    before, length = census(), len(dep.journal)
    stats_before = gateway.stats()
    serve(300)
    served = 300 + back_to(dep.journal, length, lambda: serve(1))
    assert census() == before
    assert statuses == {200: CAUSAL_RING + 40 + served}
    # The ledger still counts every request (so does admission), but it
    # is counts: the ring keeps the last few settled records, and those
    # keep scalars only.
    stats = gateway.stats()
    assert stats["requests"] == stats_before["requests"] + served
    assert stats["by_state"] == {"ok": stats["requests"]}
    assert stats["executed"] == stats["requests"] == admission.admitted_total
    assert stats["refused"] == admission.shed_total == 0
    assert len(gateway.records) == gateway.records.capacity < stats["requests"]
    assert all(
        record.request is record.respond is record.session is None
        for record in gateway.records
    )


def test_tuned_elastic_churn_leaves_nothing_behind(monkeypatch):
    """create -> all-reduce -> grow by one GPU -> destroy, with the
    autotuner armed: a destroyed communicator takes its tuner state
    (which holds the whole communicator) with it."""
    cluster, dep = make_deployment(monkeypatch)
    dep.enable_autotuning()
    elastic = dep.elastic
    client = dep.connect("app")
    gpus = list(cluster.gpus)

    def cycle():
        comm = client.create_communicator(gpus[:4])
        op = client.all_reduce(comm, NBYTES)
        dep.run()
        record = elastic.grow(comm.comm_id, [gpus[4]])
        dep.run()
        assert op.completed and record.state == "done"
        client.destroy_communicator(comm)

    def live():
        counts = census((
            "ServiceCommunicator", "CollectiveStrategy", "TraceRecord",
            "JournalRecord",
        ))
        counts["buffers"] = len(dep.control_state().buffers)
        return counts

    for _ in range(40):
        cycle()
    before, length = live(), len(dep.journal)
    for _ in range(10):
        cycle()
    back_to(dep.journal, length, cycle)
    assert live() == before
    assert before["ServiceCommunicator"] == before["buffers"] == 0
    assert dep.verify_journal() == []


def launch_records(dep, comm_id):
    """(views records, routed batches over the live tables, world, live
    versions) of one communicator: what it keeps between collectives."""
    state = dep.communicator(comm_id)
    tables = state.datapath._tables.values()
    return (
        int(state.views_record is not None),
        sum(len(table._routed) for table in tables),
        state.world,
        len(tables),
    )


def test_freed_buffers_leave_no_record_behind():
    """A collective that reused its checked views still lets go of them
    when the tenant frees the buffers, with the communicator still
    alive: no record pins freed memory until some later collective."""
    cluster = testbed_cluster()
    dep = MccsDeployment(cluster)
    client = dep.connect("app")
    gpus = list(cluster.gpus)
    comm = client.create_communicator(gpus)
    bufs = [client.alloc(gpu, NBYTES) for gpu in gpus for _ in "sr"]
    for _ in range(2):
        op = client.all_reduce(comm, NBYTES, send=bufs[::2], recv=bufs[1::2])
        dep.run()
        assert op.completed
    device = [weakref.ref(buf.device_buffer) for buf in bufs]
    backing = [weakref.ref(buf.device_buffer.data) for buf in bufs]
    for buf in bufs:
        client.free(buf)
    del bufs, buf, op
    gc.collect()
    assert [ref() for ref in device + backing] == [None] * 4 * len(gpus)
    assert launch_records(dep, comm.comm_id)[0] == 0


def test_destroy_and_retire_release_launch_records():
    cluster = testbed_cluster()
    dep = MccsDeployment(cluster)
    client = dep.connect("app")
    gpus = list(cluster.gpus)
    comm = client.create_communicator(gpus)
    sends = [client.alloc(gpu, NBYTES) for gpu in gpus]
    recvs = [client.alloc(gpu, NBYTES) for gpu in gpus]

    def serve():
        for _ in range(2):
            op = client.all_reduce(comm, NBYTES, send=sends, recv=recvs)
            dep.run()
            assert op.completed

    serve()
    state = dep.communicator(comm.comm_id)
    (old,) = state.datapath._tables.values()
    assert launch_records(dep, comm.comm_id) == (1, len(gpus), len(gpus), 1)
    dep.reconfigure(comm.comm_id, ring=list(range(len(gpus)))[::-1])
    dep.run()
    serve()
    # The retired version's table holds neither connections nor batches.
    assert old.torn_down and len(old) == 0 and old._routed == {}
    (new,) = state.datapath._tables.values()
    assert launch_records(dep, comm.comm_id) == (1, len(gpus), len(gpus), 1)
    client.destroy_communicator(comm)
    assert state.views_record is None
    assert new.torn_down and new._routed == {}


def test_launch_records_stay_bounded():
    """1 000 collectives of two kinds, with a reconfiguration midway: one
    views record per communicator, and at most one routed batch per rank
    of each live table."""
    cluster = testbed_cluster()
    dep = MccsDeployment(cluster)
    client = dep.connect("app")
    gpus = list(cluster.gpus)
    comm = client.create_communicator(gpus)
    sends = [client.alloc(gpu, NBYTES) for gpu in gpus]
    recvs = [client.alloc(gpu, NBYTES) for gpu in gpus]
    gathered = [client.alloc(gpu, NBYTES * len(gpus)) for gpu in gpus]
    peak = 0
    for i in range(1000):
        if i == 500:
            dep.reconfigure(comm.comm_id, ring=list(range(len(gpus)))[::-1])
        if i % 3:
            op = client.all_reduce(comm, NBYTES, send=sends, recv=recvs)
        else:
            op = client.all_gather(comm, NBYTES * len(gpus), send=sends, recv=gathered)
        dep.run()
        assert op.completed
        views, routed, world, versions = launch_records(dep, comm.comm_id)
        assert views == 1 and routed <= world * versions
        peak = max(peak, routed)
    assert peak == len(gpus)


def test_a_repeated_collective_checks_and_routes_nothing(monkeypatch):
    """The second of two identical collectives validates no buffer and
    routes no transfer: the views record and the routed batches hold."""
    cluster = testbed_cluster()
    dep = MccsDeployment(cluster)
    client = dep.connect("app")
    gpus = list(cluster.gpus)
    comm = client.create_communicator(gpus)
    sends = [client.alloc(gpu, NBYTES) for gpu in gpus]
    recvs = [client.alloc(gpu, NBYTES) for gpu in gpus]
    calls = Counter()
    for cls, name in (
        (MemoryManager, "validate"),
        (ConnectionTable, "route"),
        (ConnectionTable, "establish_edge"),
    ):
        def counted(self, *args, _call=getattr(cls, name), _name=name):
            calls[_name] += 1
            return _call(self, *args)

        monkeypatch.setattr(cls, name, counted)
    for expected in ({"validate": 2 * len(gpus), "route": len(gpus)}, {}):
        calls.clear()
        op = client.all_reduce(comm, NBYTES, send=sends, recv=recvs)
        dep.run()
        assert op.completed
        assert {k: v for k, v in calls.items() if k != "establish_edge"} == expected
        assert bool(calls["establish_edge"]) == bool(expected)
