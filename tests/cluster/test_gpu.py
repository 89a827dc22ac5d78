"""Simulated GPU: memory, streams, events, async ops."""

import numpy as np
import pytest

from repro.cluster.gpu import (
    AsyncOp,
    ComputeOp,
    Event,
    GpuDevice,
    Stream,
)
from repro.netsim.engine import FlowSimulator
from repro.netsim.errors import AllocationError
from repro.netsim.topology import Topology


@pytest.fixture
def sim():
    topo = Topology()
    topo.add_node("a")
    topo.add_node("b")
    topo.add_link("a", "b", 1e9)
    return FlowSimulator(topo)


@pytest.fixture
def gpu(sim):
    return GpuDevice(sim, global_id=0, host_id=0, local_index=0, memory_capacity=1024)


# -- memory -----------------------------------------------------------------
def test_allocate_and_free(gpu):
    buf = gpu.allocate(512)
    assert gpu.memory_used == 512
    gpu.free(buf)
    assert gpu.memory_used == 0
    assert buf.freed


def test_out_of_memory(gpu):
    gpu.allocate(1000)
    with pytest.raises(AllocationError):
        gpu.allocate(100)


def test_double_free_rejected(gpu):
    buf = gpu.allocate(64)
    gpu.free(buf)
    with pytest.raises(AllocationError):
        gpu.free(buf)


def test_zero_size_allocation_rejected(gpu):
    with pytest.raises(AllocationError):
        gpu.allocate(0)


def test_view_types_and_offsets(gpu):
    buf = gpu.allocate(64)
    v = buf.view(np.float32)
    assert v.size == 16
    v[:] = 2.0
    assert np.allclose(buf.view(np.float32, offset=4, count=2), 2.0)


def test_view_rejects_misaligned_offset(gpu):
    buf = gpu.allocate(64)
    with pytest.raises(ValueError):
        buf.view(np.float32, offset=3)


def test_view_rejects_overrun(gpu):
    buf = gpu.allocate(64)
    with pytest.raises(ValueError):
        buf.view(np.float32, count=99)


def test_view_after_free_rejected(gpu):
    buf = gpu.allocate(64)
    gpu.free(buf)
    with pytest.raises(AllocationError):
        buf.view()


def test_contains(gpu):
    buf = gpu.allocate(64)
    assert buf.contains(0, 64)
    assert buf.contains(32, 32)
    assert not buf.contains(32, 64)
    assert not buf.contains(-1, 4)


def test_allocation_lookup(gpu):
    buf = gpu.allocate(64)
    assert gpu.allocation(buf.buffer_id) is buf
    assert gpu.allocation(999999) is None
    assert buf in gpu.allocations()


# -- streams ------------------------------------------------------------------
def test_compute_ops_run_in_order(sim, gpu):
    stream = gpu.create_stream()
    marks = []
    stream.compute(1.0, name="k1")
    stream.add_callback(lambda: marks.append(("after k1", sim.now)))
    stream.compute(2.0, name="k2")
    stream.add_callback(lambda: marks.append(("after k2", sim.now)))
    sim.run()
    # The callback queued between the kernels saw k1 done and k2 not begun.
    assert marks == [
        ("after k1", pytest.approx(1.0)),
        ("after k2", pytest.approx(3.0)),
    ]
    assert stream.ops_executed == 4


def test_zero_duration_compute(sim, gpu):
    stream = gpu.create_stream()
    stream.compute(0.0)
    marks = []
    stream.add_callback(lambda: marks.append(sim.now))
    sim.run()
    assert marks == [0.0]


def test_streams_run_concurrently(sim, gpu):
    s1, s2 = gpu.create_stream("s1"), gpu.create_stream("s2")
    s1.compute(2.0)
    s2.compute(1.0)
    marks = []
    s1.synchronize(lambda t: marks.append(("s1", t)))
    s2.synchronize(lambda t: marks.append(("s2", t)))
    sim.run()
    assert ("s2", pytest.approx(1.0)) in marks
    assert ("s1", pytest.approx(2.0)) in marks


def test_event_record_and_wait_across_streams(sim, gpu):
    s1, s2 = gpu.create_stream(), gpu.create_stream()
    event = Event()
    s1.compute(2.0)
    s1.record_event(event)
    s2.wait_event(event)
    marks = []
    s2.add_callback(lambda: marks.append(sim.now))
    sim.run()
    assert marks == [pytest.approx(2.0)]


def test_wait_on_already_fired_event_passes_through(sim, gpu):
    stream = gpu.create_stream()
    event = Event()
    event.record()
    stream.wait_event(event)
    marks = []
    stream.add_callback(lambda: marks.append(sim.now))
    sim.run()
    assert marks == [0.0]


def test_event_reset_rearms(sim, gpu):
    event = Event()
    event.record()
    assert event.fired
    event.reset()
    assert not event.fired


def test_async_op_blocks_until_completed(sim, gpu):
    stream = gpu.create_stream()
    op = AsyncOp("collective")
    stream.enqueue(op)
    marks = []
    stream.add_callback(lambda: marks.append(sim.now))
    sim.schedule(5.0, op.complete)
    sim.run()
    assert marks == [pytest.approx(5.0)]


def test_async_op_completed_before_start(sim, gpu):
    stream = gpu.create_stream()
    stream.compute(1.0)
    op = AsyncOp()
    op.complete()  # completes before the stream reaches it
    stream.enqueue(op)
    marks = []
    stream.add_callback(lambda: marks.append(sim.now))
    sim.run()
    assert marks == [pytest.approx(1.0)]


def test_async_op_on_start_hook(sim, gpu):
    stream = gpu.create_stream()
    started = []
    op = AsyncOp(on_start=lambda: started.append(sim.now))
    stream.compute(1.5)
    stream.enqueue(op)
    sim.schedule(9.0, op.complete)
    sim.run()
    assert started == [pytest.approx(1.5)]


def test_stream_idle_property(sim, gpu):
    stream = gpu.create_stream()
    assert stream.idle
    stream.compute(1.0)
    assert not stream.idle
    sim.run()
    assert stream.idle


def test_negative_compute_duration_rejected(sim, gpu):
    with pytest.raises(ValueError):
        ComputeOp(-1.0)
