"""Inter-process sharing of device memory and events (cudaIpc analogue).

CUDA lets a process export a device allocation or an event as an opaque
*IPC handle* that another process on the same host can open.  MCCS's memory
management and synchronization design (§4.1) is built on exactly these two
primitives, so we model them explicitly:

* the exporter calls :meth:`IpcRegistry.export_memory` /
  :meth:`IpcRegistry.export_event` and ships the returned handle over the
  command queue;
* the importer calls :meth:`IpcRegistry.open_memory` /
  :meth:`IpcRegistry.open_event` and gets a reference to the same object;
* handles are host-scoped: opening a handle exported on another host
  raises, as real cudaIpc does.

Closing a memory handle (as the shim must do before forwarding a
deallocation request) is tracked so tests can assert the protocol order.
Event exports are closed by their exporter (:meth:`IpcRegistry.close_event`)
once nobody can open them any more.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Set

from ..netsim.errors import ClusterError
from .gpu import DeviceBuffer, Event

_handle_counter = itertools.count()


class IpcError(ClusterError):
    """Invalid IPC handle usage."""


@dataclass(frozen=True)
class IpcMemHandle:
    """Opaque handle to a device allocation, valid within one host."""

    handle_id: int
    host_id: int


@dataclass(frozen=True)
class IpcEventHandle:
    """Opaque handle to an event, valid within one host."""

    handle_id: int
    host_id: int


class IpcRegistry:
    """Host-local broker for IPC handles.

    One registry exists per simulated host; both the applications and the
    MCCS service on that host share it (they really share the kernel
    driver, which is what the registry stands in for).
    """

    def __init__(self, host_id: int) -> None:
        self.host_id = host_id
        self._memory: Dict[int, DeviceBuffer] = {}
        self._events: Dict[int, Event] = {}
        self._open_memory: Set[int] = set()

    # -- memory ----------------------------------------------------------
    def export_memory(self, buf: DeviceBuffer) -> IpcMemHandle:
        if buf.freed:
            raise IpcError("cannot export a freed allocation")
        handle = IpcMemHandle(next(_handle_counter), self.host_id)
        self._memory[handle.handle_id] = buf
        return handle

    def open_memory(self, handle: IpcMemHandle) -> DeviceBuffer:
        self._check(handle.host_id)
        try:
            buf = self._memory[handle.handle_id]
        except KeyError:
            raise IpcError(f"unknown memory handle {handle.handle_id}") from None
        self._open_memory.add(handle.handle_id)
        return buf

    def close_memory(self, handle: IpcMemHandle) -> None:
        """cudaIpcCloseMemHandle analogue; must precede deallocation."""
        if handle.handle_id not in self._open_memory:
            raise IpcError(f"memory handle {handle.handle_id} is not open")
        self._open_memory.discard(handle.handle_id)

    def is_open(self, handle: IpcMemHandle) -> bool:
        return handle.handle_id in self._open_memory

    def revoke_memory(self, handle: IpcMemHandle) -> None:
        """Drop the export (called by the owner after freeing)."""
        if handle.handle_id in self._open_memory:
            raise IpcError(
                f"memory handle {handle.handle_id} still open at revoke time"
            )
        self._memory.pop(handle.handle_id, None)

    # -- events ----------------------------------------------------------
    def export_event(self, event: Event) -> IpcEventHandle:
        handle = IpcEventHandle(next(_handle_counter), self.host_id)
        self._events[handle.handle_id] = event
        return handle

    def open_event(self, handle: IpcEventHandle) -> Event:
        self._check(handle.host_id)
        try:
            return self._events[handle.handle_id]
        except KeyError:
            raise IpcError(f"unknown event handle {handle.handle_id}") from None

    def close_event(self, handle: IpcEventHandle) -> None:
        """Drop an event export (the cudaIpcCloseMemHandle analogue for
        events); opening the handle afterwards raises.  Per-collective
        completion events are closed when their collective terminates,
        so the registry holds live exports only."""
        self._check(handle.host_id)
        if self._events.pop(handle.handle_id, None) is None:
            raise IpcError(f"event handle {handle.handle_id} is not exported")

    def _check(self, host_id: int) -> None:
        if host_id != self.host_id:
            raise IpcError(
                f"handle from host {host_id} opened on host {self.host_id}; "
                "cudaIpc handles are host-local"
            )
