"""Service-side memory management and buffer validation (§4.1)."""

import numpy as np
import pytest

from repro.cluster.specs import testbed_cluster
from repro.core.memory import MemoryManager
from repro.core.messages import BufferRef
from repro.netsim.errors import InvalidBufferError


@pytest.fixture
def env():
    cl = testbed_cluster()
    host = cl.hosts[0]
    return cl, host, host.gpus[0], MemoryManager()


def test_allocate_exports_handle(env):
    cl, host, gpu, mm = env
    alloc = mm.allocate("app", gpu, 256, host.ipc)
    assert alloc.buffer.size == 256
    assert host.ipc.open_memory(alloc.handle) is alloc.buffer
    assert mm.bytes_allocated - mm.bytes_freed == 256


def test_validate_accepts_in_range(env):
    cl, host, gpu, mm = env
    alloc = mm.allocate("app", gpu, 256, host.ipc)
    ref = BufferRef(alloc.buffer_id, offset=64, nbytes=128)
    assert mm.validate("app", ref) is alloc


def test_validate_rejects_out_of_range(env):
    """'The service will check whether the data buffer user passes is
    within a valid allocation before performing the operation.'"""
    cl, host, gpu, mm = env
    alloc = mm.allocate("app", gpu, 256, host.ipc)
    with pytest.raises(InvalidBufferError):
        mm.validate("app", BufferRef(alloc.buffer_id, offset=200, nbytes=100))
    with pytest.raises(InvalidBufferError):
        mm.validate("app", BufferRef(alloc.buffer_id, offset=-8, nbytes=8))


def test_validate_rejects_unknown_buffer(env):
    cl, host, gpu, mm = env
    with pytest.raises(InvalidBufferError):
        mm.validate("app", BufferRef(424242, 0, 8))


def test_validate_enforces_tenant_isolation(env):
    """A tenant cannot name another tenant's allocation."""
    cl, host, gpu, mm = env
    alloc = mm.allocate("appA", gpu, 256, host.ipc)
    with pytest.raises(InvalidBufferError):
        mm.validate("appB", BufferRef(alloc.buffer_id, 0, 8))


def test_view_returns_typed_window(env):
    cl, host, gpu, mm = env
    alloc = mm.allocate("app", gpu, 256, host.ipc)
    view = mm.view("app", BufferRef(alloc.buffer_id, 16, 64), np.float32, gpu)
    assert view.size == 16
    view[:] = 7.0
    assert np.allclose(alloc.buffer.view(np.float32, 16, 16), 7.0)


def test_free_requires_closed_handle(env):
    cl, host, gpu, mm = env
    alloc = mm.allocate("app", gpu, 256, host.ipc)
    host.ipc.open_memory(alloc.handle)
    with pytest.raises(InvalidBufferError):
        mm.free("app", alloc.buffer_id, host.ipc)
    host.ipc.close_memory(alloc.handle)
    mm.free("app", alloc.buffer_id, host.ipc)
    assert mm.bytes_allocated - mm.bytes_freed == 0


def test_free_checks_ownership(env):
    cl, host, gpu, mm = env
    alloc = mm.allocate("appA", gpu, 256, host.ipc)
    with pytest.raises(InvalidBufferError):
        mm.free("appB", alloc.buffer_id, host.ipc)


def test_free_unknown_buffer(env):
    cl, host, gpu, mm = env
    with pytest.raises(InvalidBufferError):
        mm.free("app", 999999, host.ipc)


def test_allocations_of_app(env):
    cl, host, gpu, mm = env
    a = mm.allocate("appA", gpu, 64, host.ipc)
    b = mm.allocate("appB", gpu, 64, host.ipc)
    owners = {bid: alloc.app_id for bid, alloc in mm.allocations().items()}
    assert owners == {a.buffer_id: "appA", b.buffer_id: "appB"}
