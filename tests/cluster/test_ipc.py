"""cudaIpc-style handle broker tests."""

import itertools

import pytest

from repro.cluster.gpu import Event, GpuDevice
from repro.cluster.ipc import IpcError, IpcRegistry
from repro.netsim.engine import FlowSimulator
from repro.netsim.topology import Topology


@pytest.fixture
def gpu():
    topo = Topology()
    topo.add_node("x")
    return GpuDevice(FlowSimulator(topo), 0, 0, 0, itertools.count())


@pytest.fixture
def registry():
    return IpcRegistry(host_id=0)


def test_memory_export_open_round_trip(gpu, registry):
    buf = gpu.allocate(128)
    handle = registry.export_memory(buf)
    opened = registry.open_memory(handle)
    assert opened is buf
    assert registry.is_open(handle)


def test_memory_close_protocol(gpu, registry):
    buf = gpu.allocate(128)
    handle = registry.export_memory(buf)
    registry.open_memory(handle)
    registry.close_memory(handle)
    assert not registry.is_open(handle)
    registry.revoke_memory(handle)
    with pytest.raises(IpcError):
        registry.open_memory(handle)


def test_close_unopened_handle_rejected(gpu, registry):
    buf = gpu.allocate(128)
    handle = registry.export_memory(buf)
    with pytest.raises(IpcError):
        registry.close_memory(handle)


def test_revoke_while_open_rejected(gpu, registry):
    buf = gpu.allocate(128)
    handle = registry.export_memory(buf)
    registry.open_memory(handle)
    with pytest.raises(IpcError):
        registry.revoke_memory(handle)


def test_export_freed_buffer_rejected(gpu, registry):
    buf = gpu.allocate(128)
    gpu.free(buf)
    with pytest.raises(IpcError):
        registry.export_memory(buf)


def test_handles_are_host_scoped(gpu, registry):
    other_host = IpcRegistry(host_id=1)
    buf = gpu.allocate(128)
    handle = registry.export_memory(buf)
    with pytest.raises(IpcError):
        other_host.open_memory(handle)


def test_unknown_memory_handle(gpu, registry):
    buf = gpu.allocate(128)
    handle = registry.export_memory(buf)
    registry.open_memory(handle)
    registry.close_memory(handle)
    registry.revoke_memory(handle)
    # revoked handle is unknown now
    with pytest.raises(IpcError):
        registry.open_memory(handle)


def test_event_export_open(registry):
    event = Event("sync")
    handle = registry.export_event(event)
    assert registry.open_event(handle) is event


def test_event_handles_host_scoped(registry):
    other = IpcRegistry(host_id=2)
    handle = registry.export_event(Event())
    with pytest.raises(IpcError):
        other.open_event(handle)


def test_unknown_event_handle(registry):
    other = IpcRegistry(host_id=0)
    handle = registry.export_event(Event())
    with pytest.raises(IpcError):
        other.open_event(handle)
