"""Simulated GPUs: device memory, streams, events and kernels.

The paper's prototype drives real CUDA devices; here we model exactly the
CUDA surface MCCS relies on (§4.1 of the paper):

* **device memory** — numpy-backed buffers identified by (device, buffer
  id), allocated/freed through the device, with byte-range validation;
* **streams** — in-order queues of operations owned by one process; a
  stream executes its head operation to completion before starting the
  next, on the shared simulation clock;
* **events** — one-shot synchronization objects that can be *recorded* on
  one stream and *waited on* by another, and that (unlike streams) can be
  shared across processes via IPC handles.

These semantics are what make the MCCS shim/service synchronization design
work, so they are reproduced faithfully and covered by their own tests.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Callable, Deque, Dict, List, Optional

import numpy as np

from ..netsim.engine import FlowSimulator
from ..netsim.errors import AllocationError

_buffer_counter = itertools.count()
_stream_counter = itertools.count()
_event_counter = itertools.count()


class DeviceBuffer:
    """A device memory allocation.

    The backing store is a numpy uint8 array; typed views are available via
    :meth:`view`.  ``(device.global_id, buffer_id)`` is globally unique.
    """

    def __init__(self, device: "GpuDevice", size: int) -> None:
        if size <= 0:
            raise AllocationError("allocation size must be positive")
        self.device = device
        self.size = int(size)
        self.buffer_id = next(_buffer_counter)
        self.data = np.zeros(self.size, dtype=np.uint8)
        self.freed = False

    def view(self, dtype: np.dtype = np.float32, offset: int = 0, count: Optional[int] = None) -> np.ndarray:
        """Typed view of the buffer starting at ``offset`` bytes."""
        if self.freed:
            raise AllocationError(f"use-after-free of buffer {self.buffer_id}")
        itemsize = np.dtype(dtype).itemsize
        if offset < 0 or offset % itemsize:
            raise ValueError("offset must be a non-negative multiple of itemsize")
        avail = (self.size - offset) // itemsize
        if count is None:
            count = avail
        if count > avail:
            raise ValueError("view extends past end of allocation")
        start = offset // itemsize
        return self.data.view(dtype)[start : start + count]

    def contains(self, offset: int, nbytes: int) -> bool:
        """True if [offset, offset+nbytes) lies inside this allocation."""
        return 0 <= offset and offset + nbytes <= self.size

    def __repr__(self) -> str:  # pragma: no cover
        return f"DeviceBuffer(dev={self.device.global_id}, id={self.buffer_id}, size={self.size})"


class Event:
    """A CUDA-event-like one-shot synchronization primitive."""

    def __init__(self, name: Optional[str] = None) -> None:
        self.event_id = next(_event_counter)
        self.name = name or f"event{self.event_id}"
        self._fired = False
        self._waiters: List[Callable[[], None]] = []

    @property
    def fired(self) -> bool:
        return self._fired

    def record(self) -> None:
        """Mark the event as reached; release all waiters."""
        self._fired = True
        waiters, self._waiters = self._waiters, []
        for waiter in waiters:
            waiter()

    def reset(self) -> None:
        """Re-arm the event (CUDA events are reusable after re-record)."""
        self._fired = False

    def on_fire(self, callback: Callable[[], None]) -> None:
        if self._fired:
            callback()
        else:
            self._waiters.append(callback)


class StreamOp:
    """Base class of operations that a stream executes in order."""

    name = "op"

    def start(self, stream: "Stream", done: Callable[[], None]) -> None:
        raise NotImplementedError


class ComputeOp(StreamOp):
    """A kernel occupying the stream for a fixed duration."""

    def __init__(self, duration: float, name: str = "compute") -> None:
        if duration < 0:
            raise ValueError("duration must be non-negative")
        self.duration = duration
        self.name = name

    def start(self, stream: "Stream", done: Callable[[], None]) -> None:
        if self.duration == 0:
            done()
        else:
            stream.sim.call_in(self.duration, done)


class MemcpyOp(ComputeOp):
    """A host<->device copy occupying the stream (cudaMemcpyAsync).

    Training loops spend measurable time here (the "Memcpy" share of the
    paper's Figure 2); the duration is bytes over the PCIe link rate.
    """

    def __init__(self, nbytes: int, pcie_rate: float, direction: str = "h2d") -> None:
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if pcie_rate <= 0:
            raise ValueError("pcie_rate must be positive")
        if direction not in ("h2d", "d2h"):
            raise ValueError(f"unknown direction {direction!r}")
        super().__init__(nbytes / pcie_rate, name=f"memcpy:{direction}")
        self.nbytes = nbytes
        self.direction = direction


class AsyncOp(StreamOp):
    """An operation completed externally (e.g. a collective kernel).

    The owner calls :meth:`complete` when the underlying work (network
    flows in our model) finishes.
    """

    def __init__(
        self,
        name: str = "async",
        on_start: Optional[Callable[[], None]] = None,
    ) -> None:
        self.name = name
        self.on_start = on_start
        self._done: Optional[Callable[[], None]] = None
        self._completed_early = False
        self.started = False

    def start(self, stream: "Stream", done: Callable[[], None]) -> None:
        self.started = True
        if self._completed_early:
            if self.on_start is not None:
                self.on_start()
            done()
        else:
            self._done = done
            if self.on_start is not None:
                self.on_start()

    def complete(self) -> None:
        if self._done is not None:
            done, self._done = self._done, None
            done()
        else:
            self._completed_early = True


class RecordEventOp(StreamOp):
    """Record ``event`` when the stream reaches this point."""

    def __init__(self, event: Event) -> None:
        self.event = event
        self.name = f"record:{event.name}"

    def start(self, stream: "Stream", done: Callable[[], None]) -> None:
        self.event.record()
        done()


class WaitEventOp(StreamOp):
    """Block the stream until ``event`` fires."""

    def __init__(self, event: Event) -> None:
        self.event = event
        self.name = f"wait:{event.name}"

    def start(self, stream: "Stream", done: Callable[[], None]) -> None:
        self.event.on_fire(done)


class CallbackOp(StreamOp):
    """Run a host callback in stream order (cudaLaunchHostFunc analogue)."""

    def __init__(self, fn: Callable[[], None], name: str = "callback") -> None:
        self.fn = fn
        self.name = name

    def start(self, stream: "Stream", done: Callable[[], None]) -> None:
        self.fn()
        done()


class Stream:
    """An in-order operation queue bound to the simulation clock.

    Streams belong to a single process (this is why the MCCS service cannot
    share the application's streams and must bridge with events — §4.1).
    """

    def __init__(self, sim: FlowSimulator, name: Optional[str] = None) -> None:
        self.sim = sim
        self.stream_id = next(_stream_counter)
        self.name = name or f"stream{self.stream_id}"
        self._queue: Deque[StreamOp] = deque()
        self._running: Optional[StreamOp] = None
        self.ops_executed = 0

    @property
    def idle(self) -> bool:
        return self._running is None and not self._queue

    def enqueue(self, op: StreamOp) -> StreamOp:
        """Append an operation; it runs after everything already queued."""
        self._queue.append(op)
        self._pump()
        return op

    def compute(self, duration: float, name: str = "compute") -> ComputeOp:
        return self.enqueue(ComputeOp(duration, name))  # type: ignore[return-value]

    def record_event(self, event: Event) -> None:
        self.enqueue(RecordEventOp(event))

    def wait_event(self, event: Event) -> None:
        self.enqueue(WaitEventOp(event))

    def add_callback(self, fn: Callable[[], None], name: str = "callback") -> None:
        self.enqueue(CallbackOp(fn, name))

    def synchronize(self, fn: Callable[[float], None]) -> None:
        """Invoke ``fn(now)`` once all currently queued work has drained."""
        self.add_callback(lambda: fn(self.sim.now), name="synchronize")

    def _pump(self) -> None:
        if self._running is not None or not self._queue:
            return
        op = self._queue.popleft()
        self._running = op

        def done() -> None:
            self._running = None
            self.ops_executed += 1
            self._pump()

        op.start(self, done)

    def __repr__(self) -> str:  # pragma: no cover
        state = "idle" if self.idle else f"running {self._running and self._running.name}"
        return f"Stream({self.name}, {state}, queued={len(self._queue)})"


class GpuDevice:
    """One simulated GPU.

    Attributes:
        global_id: Cluster-wide GPU index.
        host_id: Host the GPU is installed in.
        local_index: Index of the GPU within its host.
        memory_capacity: Total device memory in bytes.
    """

    def __init__(
        self,
        sim: FlowSimulator,
        global_id: int,
        host_id: int,
        local_index: int,
        memory_capacity: int = 24 * 1024**3,  # RTX 3090: 24 GB
        pcie_gBps: float = 12.0,  # effective PCIe 4.0 x16 host link
    ) -> None:
        self.sim = sim
        self.global_id = global_id
        self.host_id = host_id
        self.local_index = local_index
        self.memory_capacity = memory_capacity
        self.pcie_rate = pcie_gBps * 1e9
        self.memory_used = 0
        self._allocations: Dict[int, DeviceBuffer] = {}

    # -- memory ---------------------------------------------------------
    def allocate(self, size: int) -> DeviceBuffer:
        """cudaMalloc analogue."""
        if self.memory_used + size > self.memory_capacity:
            raise AllocationError(
                f"GPU {self.global_id} out of memory "
                f"({self.memory_used + size} > {self.memory_capacity})"
            )
        buf = DeviceBuffer(self, size)
        self._allocations[buf.buffer_id] = buf
        self.memory_used += buf.size
        return buf

    def free(self, buf: DeviceBuffer) -> None:
        """cudaFree analogue; double-free raises."""
        if buf.buffer_id not in self._allocations:
            raise AllocationError(f"invalid free of buffer {buf.buffer_id}")
        del self._allocations[buf.buffer_id]
        self.memory_used -= buf.size
        buf.freed = True

    def allocation(self, buffer_id: int) -> Optional[DeviceBuffer]:
        return self._allocations.get(buffer_id)

    def allocations(self) -> List[DeviceBuffer]:
        return list(self._allocations.values())

    # -- execution ------------------------------------------------------
    def create_stream(self, name: Optional[str] = None) -> Stream:
        return Stream(self.sim, name=name or f"gpu{self.global_id}.stream")

    def memcpy(self, stream: Stream, nbytes: int, direction: str = "h2d") -> MemcpyOp:
        """Enqueue a host<->device copy on ``stream``."""
        op = MemcpyOp(nbytes, self.pcie_rate, direction)
        stream.enqueue(op)
        return op

    def __repr__(self) -> str:  # pragma: no cover
        return f"GpuDevice(id={self.global_id}, host={self.host_id}.{self.local_index})"
