"""The MCCS shim library — what applications link against (§3, §4.1).

The shim keeps NCCL's programming model: allocate GPU buffers, create a
communicator over your GPUs, enqueue collectives against a CUDA stream.
Underneath, every call becomes a command-queue request to the host's MCCS
service:

* ``alloc`` asks the service to allocate and opens the returned IPC memory
  handle to obtain the device pointer;
* ``free`` closes the IPC handle *before* forwarding the deallocation;
* collectives pass ``(buffer id, offset)`` references — never raw
  pointers — which the service validates against live allocations;
* stream ordering is preserved by the event bridge of
  :mod:`repro.core.sync`.

Like the rest of the reproduction, one :class:`MccsClient` drives all of
an application's ranks (collapsed-driver style).
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Union

import numpy as np

from ..cluster.gpu import DeviceBuffer, Event, GpuDevice, Stream
from ..cluster.ipc import IpcEventHandle, IpcMemHandle
from ..collectives.types import Collective, ReduceOp
from ..netsim.errors import (
    InvalidBufferError,
    MccsError,
    ReproError,
    ServiceUnavailableError,
)
from ..resilience import Backoff
from ..telemetry.metrics import BoundCounter
from .communicator import CollectiveInstance
from .deployment import MccsDeployment
from .messages import (
    AllocateRequest,
    AllocateResponse,
    BufferRef,
    CollectiveRequest,
    CollectiveResponse,
    CreateCommunicatorRequest,
    CreateCommunicatorResponse,
    DestroyCommunicatorRequest,
    FreeRequest,
)
from .sync import export_snapshot


@dataclass
class MccsBuffer:
    """A device allocation obtained through the shim.

    The application received the device pointer by opening the service's
    IPC handle; compute kernels may use it freely, while collectives refer
    to it by ``(buffer_id, offset)``.
    """

    client: "MccsClient"
    gpu: GpuDevice
    buffer_id: int
    size: int
    handle: IpcMemHandle
    device_buffer: DeviceBuffer
    freed: bool = False

    def view(self, dtype=np.float32, offset: int = 0, count: Optional[int] = None) -> np.ndarray:
        """Typed numpy view of the device memory (the 'device pointer')."""
        return self.device_buffer.view(dtype, offset, count)

    def ref(self, offset: int = 0, nbytes: Optional[int] = None) -> BufferRef:
        """Reference a byte range for use in a collective."""
        if nbytes is None:
            nbytes = self.size - offset
        return BufferRef(buffer_id=self.buffer_id, offset=offset, nbytes=nbytes)


@dataclass
class MccsCommunicator:
    """Client-side communicator handle (mirrors ncclComm_t)."""

    client: "MccsClient"
    comm_id: int
    gpus: List[GpuDevice]
    done_event: Event

    @property
    def world(self) -> int:
        return len(self.gpus)


@dataclass
class ClientCollective:
    """Client-side view of one issued collective.

    While the service is down the collective may sit in the shim's retry
    queue: ``instance`` is ``None`` and :attr:`pending` is true.  It
    resolves to either a live instance (reissued after the restart) or a
    typed ``error`` — a shim collective never silently hangs.
    """

    comm: MccsCommunicator
    seq: int
    kind: Collective
    out_bytes: int
    instance: Optional[CollectiveInstance] = None
    error: Optional[BaseException] = None
    #: Reissue attempts this collective consumed (0 = first try worked).
    retries: int = 0

    @property
    def pending(self) -> bool:
        """Still waiting in the shim's retry queue."""
        return self.instance is None and self.error is None

    @property
    def failed(self) -> bool:
        if self.error is not None:
            return True
        return self.instance is not None and self.instance.aborted

    @property
    def completed(self) -> bool:
        return self.instance is not None and self.instance.completed

    def duration(self) -> float:
        if self.instance is None:
            raise MccsError(
                f"collective never reached the service: {self.error}"
                if self.error is not None
                else "collective still queued for reissue"
            )
        return self.instance.duration()

    @property
    def end_time(self) -> Optional[float]:
        return self.instance.end_time if self.instance is not None else None


@dataclass
class _PendingIssue:
    """One collective waiting in the per-communicator reissue queue."""

    collective: ClientCollective
    request: CollectiveRequest
    stream: Optional[Stream]
    on_complete: Optional[Callable[[CollectiveInstance, float], None]]
    attempt: int = 0


BufferArg = Union[MccsBuffer, BufferRef]

#: How every shim waits out a restarting host service before giving up.
SHIM_RETRY = Backoff()


class MccsClient:
    """The shim library instance of one application."""

    def __init__(self, deployment: MccsDeployment, app_id: str) -> None:
        self.deployment = deployment
        self.app_id = app_id
        self.cluster = deployment.cluster
        self.buffers: Dict[int, MccsBuffer] = {}
        self.communicators: Dict[int, MccsCommunicator] = {}
        # Deterministic jitter: seeded from the app id (crc32, not hash()
        # — Python string hashes vary between runs).
        self._rng = random.Random(zlib.crc32(app_id.encode()))
        #: comm_id -> FIFO of collectives awaiting reissue.  Program order
        #: is preserved: while the queue is non-empty, new collectives on
        #: that communicator join the back instead of being issued.
        self._reissue: Dict[int, List[_PendingIssue]] = {}
        self._pump_scheduled: Set[int] = set()
        self.retries_total = 0
        self.giveups_total = 0
        self._calls = deployment.telemetry().metrics.counter(
            "mccs_shim_calls_total",
            "Shim API calls, by app and call.",
        )
        #: call name -> label handle, bound the first time it is made.
        self._call_series: Dict[str, BoundCounter] = {}

    # ------------------------------------------------------------------
    def _queue_for(self, gpu: GpuDevice):
        service = self.deployment.service_of_gpu(gpu)
        return service.frontend_for(self.app_id, self.deployment).queue

    def _count_call(self, call: str) -> None:
        series = self._call_series.get(call)
        if series is None:
            series = self._call_series[call] = self._calls.labels(
                app=self.app_id, call=call
            )
        series.inc()

    # ------------------------------------------------------------------
    # memory management
    # ------------------------------------------------------------------
    def alloc(self, gpu: GpuDevice, size: int) -> MccsBuffer:
        """Allocate ``size`` bytes on ``gpu`` through the MCCS service."""
        self._count_call("alloc")
        response = self._queue_for(gpu).call(
            AllocateRequest(gpu_global_id=gpu.global_id, size=size)
        )
        assert isinstance(response, AllocateResponse)
        host = self.cluster.hosts[gpu.host_id]
        device_buffer = host.ipc.open_memory(response.handle)
        buf = MccsBuffer(
            client=self,
            gpu=gpu,
            buffer_id=response.buffer_id,
            size=response.size,
            handle=response.handle,
            device_buffer=device_buffer,
        )
        self.buffers[buf.buffer_id] = buf
        return buf

    def free(self, buf: MccsBuffer) -> None:
        """Release a buffer: close the IPC handle, then tell the service.

        The order matters — §4.1: "the shim is responsible for closing the
        inter-process memory handle before forwarding the request".
        A free that hits a down service is retried in the background once
        the service restarts (the service-side free is idempotent, so a
        retry can never double-release).
        """
        if buf.freed:
            raise InvalidBufferError(
                f"double free of buffer {buf.buffer_id} by {self.app_id!r}"
            )
        self._count_call("free")
        host = self.cluster.hosts[buf.gpu.host_id]
        host.ipc.close_memory(buf.handle)
        try:
            self._queue_for(buf.gpu).call(FreeRequest(buffer_id=buf.buffer_id))
        except ServiceUnavailableError:
            self._count_retry()
            self._retry_free(buf, attempt=0)
        buf.freed = True
        del self.buffers[buf.buffer_id]

    def _retry_free(self, buf: MccsBuffer, attempt: int) -> None:
        """Fire-and-forget reissue of a FreeRequest after an outage."""
        if attempt >= SHIM_RETRY.max_retries:
            self._count_giveup("free")
            return

        def fire() -> None:
            try:
                self._queue_for(buf.gpu).call(
                    FreeRequest(buffer_id=buf.buffer_id)
                )
            except ServiceUnavailableError:
                self._count_retry()
                self._retry_free(buf, attempt + 1)
            except InvalidBufferError:
                # The original free did land (or replay marked it freed):
                # idempotence means there is nothing left to do.
                pass

        self.cluster.sim.call_in(
            SHIM_RETRY.delay(attempt, self._rng), fire
        )

    # ------------------------------------------------------------------
    # communicator management
    # ------------------------------------------------------------------
    def create_communicator(self, gpus: Sequence[GpuDevice]) -> MccsCommunicator:
        """Create a communicator; rank i is ``gpus[i]``."""
        self._count_call("create_communicator")
        response = self._queue_for(gpus[0]).call(
            CreateCommunicatorRequest(
                gpu_global_ids=tuple(g.global_id for g in gpus)
            )
        )
        assert isinstance(response, CreateCommunicatorResponse)
        root_host = self.cluster.hosts[gpus[0].host_id]
        done_event = root_host.ipc.open_event(response.done_event)
        comm = MccsCommunicator(
            client=self,
            comm_id=response.comm_id,
            gpus=list(gpus),
            done_event=done_event,
        )
        self.communicators[comm.comm_id] = comm
        return comm

    def adopt_communicator(self, comm_id: int) -> MccsCommunicator:
        """Client-side handle for a communicator the provider pre-created
        for this application (e.g. via ``CentralManager.admit``)."""
        service_comm = self.deployment.communicator(comm_id)
        if service_comm.app_id != self.app_id:
            raise MccsError(
                f"communicator {comm_id} belongs to {service_comm.app_id!r}"
            )
        comm = MccsCommunicator(
            client=self,
            comm_id=comm_id,
            gpus=list(service_comm.gpus),
            done_event=service_comm.comm_event,
        )
        self.communicators[comm_id] = comm
        return comm

    def adopt_buffer(self, buffer_id: int) -> MccsBuffer:
        """Client-side handle for a buffer this application already owns
        service-side (e.g. re-attached after a front-end restart).  The
        allocation is validated against the owning service and the IPC
        handle is re-opened, so views see the live device memory."""
        for service in self.deployment.services.values():
            alloc = service.memory.allocations().get(buffer_id)
            if alloc is None:
                continue
            if alloc.app_id != self.app_id:
                raise MccsError(
                    f"buffer {buffer_id} belongs to {alloc.app_id!r}"
                )
            gpu = alloc.buffer.device
            host = self.cluster.hosts[gpu.host_id]
            device_buffer = host.ipc.open_memory(alloc.handle)
            buf = MccsBuffer(
                client=self,
                gpu=gpu,
                buffer_id=buffer_id,
                size=alloc.buffer.size,
                handle=alloc.handle,
                device_buffer=device_buffer,
            )
            self.buffers[buffer_id] = buf
            return buf
        raise MccsError(f"no live allocation for buffer {buffer_id}")

    def destroy_communicator(self, comm: MccsCommunicator) -> None:
        self._count_call("destroy_communicator")
        self._queue_for(comm.gpus[0]).call(
            DestroyCommunicatorRequest(comm_id=comm.comm_id)
        )
        del self.communicators[comm.comm_id]

    def create_stream(self, gpu: GpuDevice, name: Optional[str] = None) -> Stream:
        """An application compute stream on ``gpu``."""
        return gpu.create_stream(name)

    # ------------------------------------------------------------------
    # collectives
    # ------------------------------------------------------------------
    def all_reduce(self, comm: MccsCommunicator, out_bytes: int, **kw) -> ClientCollective:
        return self._collective(comm, Collective.ALL_REDUCE, out_bytes, **kw)

    def all_gather(self, comm: MccsCommunicator, out_bytes: int, **kw) -> ClientCollective:
        return self._collective(comm, Collective.ALL_GATHER, out_bytes, **kw)

    def reduce_scatter(self, comm: MccsCommunicator, out_bytes: int, **kw) -> ClientCollective:
        return self._collective(comm, Collective.REDUCE_SCATTER, out_bytes, **kw)

    def broadcast(self, comm: MccsCommunicator, out_bytes: int, root: int = 0, **kw) -> ClientCollective:
        return self._collective(comm, Collective.BROADCAST, out_bytes, root=root, **kw)

    def reduce(self, comm: MccsCommunicator, out_bytes: int, root: int = 0, **kw) -> ClientCollective:
        return self._collective(comm, Collective.REDUCE, out_bytes, root=root, **kw)

    def send_recv(
        self,
        comm: MccsCommunicator,
        src_rank: int,
        dst_rank: int,
        nbytes: int,
        *,
        send: Optional[BufferArg] = None,
        recv: Optional[BufferArg] = None,
        dtype: str = "float32",
        stream: Optional[Stream] = None,
    ) -> Event:
        """Point-to-point transfer (ncclSend/ncclRecv pair analogue).

        Returns the completion event; with ``stream`` given, the stream
        also waits on it, matching the collective synchronization dance.
        """
        from .messages import P2pRequest, P2pResponse

        self._count_call("send_recv")
        root_host = self.cluster.hosts[comm.gpus[0].host_id]
        stream_event_handle = None
        if stream is not None:
            _, stream_event_handle = export_snapshot(
                stream, root_host.ipc, label=f"{self.app_id}.p2p.pre"
            )
        try:
            response = self._queue_for(comm.gpus[0]).call(
                P2pRequest(
                    comm_id=comm.comm_id,
                    src_rank=src_rank,
                    dst_rank=dst_rank,
                    nbytes=nbytes,
                    send_ref=self._as_ref(send) if send is not None else None,
                    recv_ref=self._as_ref(recv) if recv is not None else None,
                    dtype=dtype,
                    stream_event=stream_event_handle,
                )
            )
        finally:
            self._close_snapshot(stream_event_handle)
        assert isinstance(response, P2pResponse)
        done = root_host.ipc.open_event(response.done_event)
        if stream is not None:
            stream.wait_event(done)
        return done

    def _collective(
        self,
        comm: MccsCommunicator,
        kind: Collective,
        out_bytes: int,
        *,
        send: Optional[Sequence[BufferArg]] = None,
        recv: Optional[Sequence[BufferArg]] = None,
        dtype: str = "float32",
        op: ReduceOp = ReduceOp.SUM,
        root: int = 0,
        stream: Optional[Stream] = None,
        on_complete: Optional[Callable[[CollectiveInstance, float], None]] = None,
    ) -> ClientCollective:
        """Issue one collective through the command queue.

        When ``stream`` is given, the shim records a snapshot event on it
        (so the service waits for the producing computation) and makes it
        wait on the returned completion event (so consumers wait for the
        collective) — the full §4.1 synchronization dance.
        """
        self._count_call(kind.value)
        root_host = self.cluster.hosts[comm.gpus[0].host_id]
        stream_event_handle = None
        if stream is not None:
            _, stream_event_handle = export_snapshot(
                stream, root_host.ipc, label=f"{self.app_id}.pre"
            )
        request = CollectiveRequest(
            comm_id=comm.comm_id,
            kind=kind,
            out_bytes=out_bytes,
            send_refs=tuple(self._as_ref(b) for b in send) if send else (),
            recv_refs=tuple(self._as_ref(b) for b in recv) if recv else (),
            dtype=dtype,
            reduce_op=op,
            root=root,
            stream_event=stream_event_handle,
        )
        collective = ClientCollective(
            comm=comm, seq=-1, kind=kind, out_bytes=out_bytes
        )
        item = _PendingIssue(
            collective=collective,
            request=request,
            stream=stream,
            on_complete=on_complete,
        )
        queue = self._reissue.get(comm.comm_id)
        if queue:
            # Earlier collectives on this communicator are still waiting
            # out an outage; join the back to preserve program order.
            queue.append(item)
            return collective
        try:
            self._issue(item)
        except ServiceUnavailableError:
            self._count_retry()
            self._reissue.setdefault(comm.comm_id, []).append(item)
            self._schedule_pump(comm.comm_id, item.attempt)
        except BaseException:
            self._close_snapshot(request.stream_event)
            raise
        return collective

    def _issue(self, item: _PendingIssue) -> None:
        """One issue attempt; raises ServiceUnavailableError while down."""
        comm = item.collective.comm
        root_host = self.cluster.hosts[comm.gpus[0].host_id]
        response = self._queue_for(comm.gpus[0]).call(item.request)
        assert isinstance(response, CollectiveResponse)
        instance = response.instance
        item.collective.seq = response.seq
        item.collective.instance = instance
        item.collective.retries = item.attempt
        if item.on_complete is not None:
            self._chain_callback(instance, item.on_complete)
        if item.stream is not None and response.done_event is not None:
            done = root_host.ipc.open_event(response.done_event)
            item.stream.wait_event(done)
        self._close_snapshot(item.request.stream_event)

    def _close_snapshot(self, handle: Optional[IpcEventHandle]) -> None:
        """Close the shim's export of a pre-op stream snapshot.  The
        service opens it inside the issue call, so the export is done for
        once that call succeeded — or the shim gave the request up."""
        if handle is not None:
            self.cluster.hosts[handle.host_id].ipc.close_event(handle)

    # ------------------------------------------------------------------
    # outage handling: deferred reissue on the simulated clock
    # ------------------------------------------------------------------
    def _schedule_pump(self, comm_id: int, attempt: int) -> None:
        if comm_id in self._pump_scheduled:
            return
        self._pump_scheduled.add(comm_id)
        self.cluster.sim.call_in(
            SHIM_RETRY.delay(attempt, self._rng),
            lambda: self._pump(comm_id),
        )

    def _pump(self, comm_id: int) -> None:
        """Drain the reissue queue head-first (FIFO preserves seq order)."""
        self._pump_scheduled.discard(comm_id)
        queue = self._reissue.get(comm_id)
        while queue:
            item = queue[0]
            try:
                self._issue(item)
            except ServiceUnavailableError as exc:
                item.attempt += 1
                if item.attempt > SHIM_RETRY.max_retries:
                    self._fail_issue(item, exc)
                    queue.pop(0)
                    continue
                self._count_retry()
                self._schedule_pump(comm_id, item.attempt)
                return
            except ReproError as exc:
                # Typed decision or hard error (an admission shed, the
                # communicator aborted during the outage): surface it on
                # the collective, never retry, never raise out of the
                # simulation loop.
                self._fail_issue(item, exc)
                queue.pop(0)
                continue
            queue.pop(0)
        self._reissue.pop(comm_id, None)

    def _fail_issue(self, item: _PendingIssue, error: BaseException) -> None:
        item.collective.error = error
        self._close_snapshot(item.request.stream_event)
        self._count_giveup(item.collective.kind.value)

    def _count_retry(self) -> None:
        self.retries_total += 1
        self.deployment.telemetry().metrics.counter(
            "mccs_shim_retries_total",
            "Shim requests re-queued because the service was unavailable.",
        ).inc(app=self.app_id)

    def _count_giveup(self, call: str) -> None:
        self.giveups_total += 1
        self.deployment.telemetry().metrics.counter(
            "mccs_shim_giveups_total",
            "Shim requests abandoned with a typed error, by call.",
        ).inc(app=self.app_id, call=call)

    @staticmethod
    def _chain_callback(
        instance: CollectiveInstance,
        callback: Callable[[CollectiveInstance, float], None],
    ) -> None:
        previous = instance.on_complete

        def chained(inst: CollectiveInstance, now: float) -> None:
            if previous is not None:
                previous(inst, now)
            callback(inst, now)

        instance.on_complete = chained

    @staticmethod
    def _as_ref(buf: BufferArg) -> BufferRef:
        if isinstance(buf, BufferRef):
            return buf
        return buf.ref()
