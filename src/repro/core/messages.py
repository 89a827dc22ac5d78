"""Shim <-> service command-queue messages.

The MCCS shim "communicates with MCCS service using shared host and GPU
memory" (§3).  We model the shared-memory command queue explicitly: typed
request/response records travel between the shim and the per-application
frontend engine.  The queue itself is host-local and delivers in order;
its latency contribution is folded into the datapath term of the MCCS
latency model (the paper measures the whole shim->service->engine chain
at 50-80 us).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

from ..cluster.ipc import IpcEventHandle, IpcMemHandle
from ..collectives.types import Collective, ReduceOp


@dataclass(frozen=True)
class Request:
    """Base class for shim->service messages."""


@dataclass(frozen=True)
class AllocateRequest(Request):
    """Allocate ``size`` bytes on GPU ``gpu_global_id``."""

    gpu_global_id: int
    size: int


@dataclass(frozen=True)
class AllocateResponse:
    """Handle the shim opens to get the device pointer."""

    buffer_id: int
    handle: IpcMemHandle
    size: int


@dataclass(frozen=True)
class FreeRequest(Request):
    """Release a service-managed allocation (shim closed its handle)."""

    buffer_id: int


@dataclass(frozen=True)
class BufferRef:
    """A (buffer id, offset, nbytes) range inside a managed allocation.

    This is what the shim passes "for collective operations ... an
    identifier for the memory allocation and an offset" (§4.1); the
    service validates the range before touching the data.
    """

    buffer_id: int
    offset: int
    nbytes: int


@dataclass(frozen=True)
class CreateCommunicatorRequest(Request):
    """Create a communicator over the app's GPUs (by global id, rank order)."""

    gpu_global_ids: Tuple[int, ...]


@dataclass(frozen=True)
class CreateCommunicatorResponse:
    """Communicator id plus the per-communicator completion event handle."""

    comm_id: int
    done_event: IpcEventHandle


@dataclass(frozen=True)
class CollectiveRequest(Request):
    """Issue one collective on a communicator.

    ``stream_event`` is the handle of the event the shim recorded on the
    application stream that produced the input data; the service's
    communicator stream waits on it before running the communication
    kernel.  ``send_refs``/``recv_refs`` carry one validated buffer range
    per rank when the application wants real data moved; they may be empty
    for timing-only replay (the traffic-generator mode of §6.1).
    """

    comm_id: int
    kind: Collective
    out_bytes: int
    send_refs: Tuple[BufferRef, ...] = ()
    recv_refs: Tuple[BufferRef, ...] = ()
    dtype: str = "float32"
    reduce_op: ReduceOp = ReduceOp.SUM
    root: int = 0
    stream_id: int = -1
    stream_event: Optional[IpcEventHandle] = None


@dataclass(frozen=True)
class CollectiveResponse:
    """Acknowledgement: the sequence number plus the completion event the
    shim makes the application stream wait on."""

    comm_id: int
    seq: int
    #: ``None`` when the collective already terminated inside the call
    #: (a dead peer proxy aborted it): there is nothing left to wait for.
    done_event: Optional[IpcEventHandle] = None
    #: Not a wire field: the service-side
    #: :class:`~repro.core.communicator.CollectiveInstance`, which the
    #: collapsed-driver client handle reads the outcome from (completion,
    #: typed error, timings).  The service itself keeps it only while the
    #: collective is in flight.
    instance: Optional[object] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class P2pRequest(Request):
    """Point-to-point transfer between two ranks of a communicator.

    The paper notes P2P support is a straightforward extension of the
    prototype (§5); like NCCL's ncclSend/ncclRecv it rides the
    communicator's established connections and stream ordering.
    """

    comm_id: int
    src_rank: int
    dst_rank: int
    nbytes: int
    send_ref: Optional[BufferRef] = None
    recv_ref: Optional[BufferRef] = None
    dtype: str = "float32"
    stream_id: int = -1
    stream_event: Optional[IpcEventHandle] = None


@dataclass(frozen=True)
class P2pResponse:
    comm_id: int
    done_event: Optional[IpcEventHandle] = None


@dataclass(frozen=True)
class DestroyCommunicatorRequest(Request):
    comm_id: int


class CommandQueue:
    """In-order shared-memory command queue between shim and frontend.

    Delivery is immediate in simulated time (the end-to-end datapath
    latency is accounted at flow-injection time); what the queue *does*
    preserve is ordering and the request/response discipline, which the
    protocol tests rely on.
    """

    def __init__(self) -> None:
        self._handler: Optional[Callable[[Request], object]] = None
        self.sent: int = 0

    def bind(self, handler: Callable[[Request], object]) -> None:
        """The frontend engine registers itself as the consumer."""
        if self._handler is not None:
            raise RuntimeError("command queue already bound")
        self._handler = handler

    def call(self, request: Request) -> object:
        """Send a request and wait for the (synchronous) response."""
        if self._handler is None:
            raise RuntimeError("command queue is not bound to a service")
        self.sent += 1
        return self._handler(request)
