"""Service-side GPU memory management (§4.1).

MCCS "redirect[s] control over GPU memory allocations and deallocations to
the MCCS service": the frontend engine allocates on the tenant's GPU,
exports a cudaIpc handle for the shim to open, and later validates that
every buffer reference a collective passes lies within a live allocation
("The service will check whether the data buffer user passes is within a
valid allocation before performing the operation").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Set

import numpy as np

from ..cluster.gpu import DeviceBuffer, GpuDevice
from ..cluster.ipc import IpcMemHandle, IpcRegistry
from ..netsim.errors import InvalidBufferError
from .messages import BufferRef


@dataclass
class ManagedAllocation:
    """One service-owned allocation and its export handle."""

    app_id: str
    buffer: DeviceBuffer
    handle: IpcMemHandle

    @property
    def buffer_id(self) -> int:
        return self.buffer.buffer_id


class MemoryManager:
    """Tracks every allocation the service made on behalf of tenants."""

    def __init__(self) -> None:
        self._allocations: Dict[int, ManagedAllocation] = {}
        #: Buffer ids this manager already freed, so a shim retry of a
        #: FreeRequest (delivered after a service restart) is a no-op
        #: instead of an "unknown buffer" error: free is idempotent.
        self._freed: Set[int] = set()
        self.bytes_allocated = 0
        self.bytes_freed = 0
        self.generation = 0  # bumped by allocate, free and adopt

    def allocate(
        self, app_id: str, gpu: GpuDevice, size: int, ipc: IpcRegistry
    ) -> ManagedAllocation:
        """Allocate on ``gpu`` and export an IPC handle for the shim."""
        buffer = gpu.allocate(size)
        handle = ipc.export_memory(buffer)
        alloc = ManagedAllocation(app_id=app_id, buffer=buffer, handle=handle)
        self._allocations[buffer.buffer_id] = alloc
        self.bytes_allocated += size
        self.generation += 1
        return alloc

    def free(self, app_id: str, buffer_id: int, ipc: IpcRegistry) -> bool:
        """Free an allocation; the shim must have closed its handle.

        Idempotent under retry: freeing an id this manager already freed
        returns ``False`` without touching the device (the first free
        won); an id that was *never* allocated raises the typed
        :class:`InvalidBufferError`.  Returns ``True`` when this call
        performed the deallocation.
        """
        alloc = self._allocations.get(buffer_id)
        if alloc is None:
            if buffer_id in self._freed:
                return False
            raise InvalidBufferError(f"unknown buffer id {buffer_id}")
        if alloc.app_id != app_id:
            raise InvalidBufferError(
                f"buffer {buffer_id} belongs to {alloc.app_id!r}, not {app_id!r}"
            )
        if ipc.is_open(alloc.handle):
            raise InvalidBufferError(
                f"buffer {buffer_id} freed while its IPC handle is still open"
            )
        alloc.buffer.device.free(alloc.buffer)
        ipc.revoke_memory(alloc.handle)
        self.bytes_freed += alloc.buffer.size
        del self._allocations[buffer_id]
        self._freed.add(buffer_id)
        self.generation += 1
        return True

    # ------------------------------------------------------------------
    # crash recovery
    # ------------------------------------------------------------------
    def adopt(
        self, app_id: str, buffer: DeviceBuffer, handle: IpcMemHandle
    ) -> ManagedAllocation:
        """Re-adopt a surviving allocation after a service restart.

        The device memory and the host's IPC export outlived the crashed
        service process; journal replay re-binds them into a fresh
        manager without allocating or exporting anything new.
        """
        alloc = ManagedAllocation(app_id=app_id, buffer=buffer, handle=handle)
        self._allocations[buffer.buffer_id] = alloc
        self.bytes_allocated += buffer.size
        self.generation += 1
        return alloc

    def mark_freed(self, buffer_id: int) -> None:
        """Record a historical free during journal replay (keeps retried
        frees of pre-crash buffers idempotent after a restart)."""
        self._freed.add(buffer_id)

    # ------------------------------------------------------------------
    def validate(self, app_id: str, ref: BufferRef) -> ManagedAllocation:
        """Check a collective's buffer reference; raise if out of range.

        Enforces ownership (a tenant cannot name another tenant's buffer)
        and bounds (the [offset, offset+nbytes) window must lie inside the
        allocation).
        """
        alloc = self._allocations.get(ref.buffer_id)
        if alloc is None:
            raise InvalidBufferError(f"unknown buffer id {ref.buffer_id}")
        if alloc.app_id != app_id:
            raise InvalidBufferError(
                f"app {app_id!r} referenced buffer {ref.buffer_id} owned by "
                f"{alloc.app_id!r}"
            )
        if ref.offset < 0 or ref.nbytes < 0 or not alloc.buffer.contains(
            ref.offset, ref.nbytes
        ):
            raise InvalidBufferError(
                f"range [{ref.offset}, {ref.offset + ref.nbytes}) outside "
                f"allocation of {alloc.buffer.size} bytes"
            )
        return alloc

    def view(self, app_id: str, ref: BufferRef, dtype=np.uint8) -> np.ndarray:
        """Validated numpy view over a buffer reference."""
        alloc = self.validate(app_id, ref)
        itemsize = np.dtype(dtype).itemsize
        return alloc.buffer.view(dtype, ref.offset, ref.nbytes // itemsize)

    def allocations(self) -> Dict[int, ManagedAllocation]:
        return dict(self._allocations)
