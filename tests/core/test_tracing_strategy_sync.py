"""Tracing, strategy versioning, messages, and sync-bridge tests."""

import itertools

import pytest

from repro.cluster.gpu import Event, GpuDevice
from repro.cluster.ipc import IpcRegistry
from repro.collectives.ring import RingSchedule
from repro.collectives.types import Collective
from repro.core.messages import CommandQueue, AllocateRequest
from repro.core.strategy import CollectiveStrategy, default_strategy
from repro.core.sync import export_snapshot, snapshot_event
from repro.core.tracing import CommTrace, TraceRecord
from repro.netsim.engine import FlowSimulator
from repro.netsim.errors import CommunicatorError
from repro.netsim.topology import Topology


# -- tracing ------------------------------------------------------------------
def make_trace(spans):
    """spans: list of (issue, start, end)."""
    trace = CommTrace(comm_id=1)
    for i, (issue, start, end) in enumerate(spans):
        trace.append(TraceRecord(i, Collective.ALL_REDUCE, 100, issue, start, end))
    return trace


def test_busy_intervals_merge_overlaps():
    trace = make_trace([(0.0, 0.0, 1.0), (0.5, 0.5, 2.0), (3.0, 3.0, 4.0)])
    assert trace.busy_intervals() == [(0.0, 2.0), (3.0, 4.0)]


def test_idle_intervals_are_gaps():
    trace = make_trace([(0.0, 0.0, 1.0), (2.0, 2.0, 3.0), (5.0, 5.0, 6.0)])
    assert trace.idle_intervals() == [(1.0, 2.0), (3.0, 5.0)]


def test_communication_period_medians():
    spans = []
    t = 0.0
    for _ in range(6):
        spans.append((t, t, t + 1.0))
        t += 3.0  # busy 1, idle 2
    trace = make_trace(spans)
    busy, idle = trace.communication_period()
    assert busy == pytest.approx(1.0)
    assert idle == pytest.approx(2.0)


def test_communication_period_needs_signal():
    trace = make_trace([(0.0, 0.0, 1.0)])
    assert trace.communication_period() is None


def test_comm_traces_per_app(cluster, deployment):
    """A communicator owns its trace: per-app lookup reads the live
    communicators, and destroy drops the trace with its owner."""
    gpus = list(cluster.gpus)
    client_a, client_b = deployment.connect("a"), deployment.connect("b")
    a1 = client_a.create_communicator(gpus[0:2])
    a2 = client_a.create_communicator(gpus[2:4])
    b = client_b.create_communicator(gpus[4:6])

    def traces_of_app(app_id):
        return [c.trace for c in deployment.communicators() if c.app_id == app_id]

    assert len(traces_of_app("a")) == 2
    assert [t.comm_id for t in traces_of_app("b")] == [b.comm_id]
    assert traces_of_app("ghost") == []
    assert len(deployment.communicators()) == 3
    assert deployment.trace(a2.comm_id) is deployment.communicator(a2.comm_id).trace
    client_a.destroy_communicator(a2)
    assert [t.comm_id for t in traces_of_app("a")] == [a1.comm_id]
    assert [c.trace.comm_id for c in deployment.communicators()] == [
        a1.comm_id, b.comm_id
    ]
    with pytest.raises(CommunicatorError):
        deployment.trace(a2.comm_id)


# -- strategy -------------------------------------------------------------------
def test_default_strategy():
    s = default_strategy(4, channels=2)
    assert s.ring.order == (0, 1, 2, 3)
    assert s.channels == 2
    assert s.version == 0


def test_strategy_validation():
    with pytest.raises(ValueError):
        CollectiveStrategy(ring=RingSchedule((0, 1)), channels=0)
    with pytest.raises(ValueError):
        CollectiveStrategy(ring=RingSchedule((0, 1)), algorithm="mesh")


def test_route_ids_validation():
    ring = RingSchedule((0, 1, 2))
    ok = CollectiveStrategy(
        ring=ring, channels=2, route_ids=(((0, 1, 1), 3),)
    )
    assert ok.route_map() == {(0, 1, 1): 3}
    with pytest.raises(ValueError, match="malformed"):
        CollectiveStrategy(ring=ring, route_ids=((0, 1),))
    with pytest.raises(ValueError, match="outside"):
        CollectiveStrategy(ring=ring, route_ids=(((0, 3, 0), 1),))
    with pytest.raises(ValueError, match="itself"):
        CollectiveStrategy(ring=ring, route_ids=(((1, 1, 0), 1),))
    with pytest.raises(ValueError, match="channel"):
        CollectiveStrategy(ring=ring, route_ids=(((0, 1, 1), 1),))
    with pytest.raises(ValueError, match="negative"):
        CollectiveStrategy(ring=ring, route_ids=(((0, 1, 0), -1),))


def test_evolve_bumps_version():
    s = default_strategy(3)
    s2 = s.evolve(ring=RingSchedule((2, 1, 0)))
    assert s2.version == 1
    assert s2.ring.order == (2, 1, 0)
    s3 = s2.evolve(routes={(0, 1, 0): 1})
    assert s3.version == 2
    assert s3.route_map() == {(0, 1, 0): 1}
    assert s3.ring.order == (2, 1, 0)  # carried forward


# -- command queue -----------------------------------------------------------------
def test_queue_requires_binding():
    q = CommandQueue()
    with pytest.raises(RuntimeError):
        q.call(AllocateRequest(gpu_global_id=0, size=4))


def test_queue_single_binding():
    q = CommandQueue()
    q.bind(lambda req: "ok")
    with pytest.raises(RuntimeError):
        q.bind(lambda req: "again")
    assert q.call(AllocateRequest(gpu_global_id=0, size=4)) == "ok"
    assert q.sent == 1


# -- sync bridge ---------------------------------------------------------------------
@pytest.fixture
def sim_gpu():
    topo = Topology()
    topo.add_node("x")
    sim = FlowSimulator(topo)
    return sim, GpuDevice(sim, 0, 0, 0, itertools.count())


def test_snapshot_event_fires_after_queued_work(sim_gpu):
    sim, gpu = sim_gpu
    stream = gpu.create_stream()
    stream.compute(2.0)
    event = snapshot_event(stream)
    assert not event.fired
    sim.run()
    assert event.fired


def test_export_and_bridge(sim_gpu):
    sim, gpu = sim_gpu
    ipc = IpcRegistry(host_id=0)
    producer = gpu.create_stream()
    consumer = gpu.create_stream()
    producer.compute(1.0)
    _, handle = export_snapshot(producer, ipc)
    consumer.wait_event(ipc.open_event(handle))
    marks = []
    consumer.add_callback(lambda: marks.append(sim.now))
    sim.run()
    assert marks == [pytest.approx(1.0)]


def test_snapshot_events_are_fresh_objects(sim_gpu):
    sim, gpu = sim_gpu
    stream = gpu.create_stream()
    e1 = snapshot_event(stream)
    e2 = snapshot_event(stream)
    assert e1 is not e2
