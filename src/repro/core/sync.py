"""Stream/event synchronization bridge between shim and service (§4.1).

CUDA streams cannot be shared across processes, but events can (via IPC
handles).  MCCS therefore bridges the application's streams and the
service's per-communicator stream with *pairs of events*:

* before issuing a collective, the shim records an event on the
  application stream that produced the data; the service's communicator
  stream waits on it, so the communication kernel cannot overtake the
  producer computation;
* the service records a completion event after the communication kernel;
  the shim makes the application stream wait on it, so consumers cannot
  overtake the collective.

**Snapshot semantics.**  CUDA's ``cudaStreamWaitEvent`` waits on the state
captured by the most recent ``cudaEventRecord`` *at call time*; a later
re-record does not disturb an earlier wait.  Our simulated ``WaitEventOp``
instead evaluates when the stream reaches it, so reusing one event object
per stream (as the prototype does) could release a waiter with a stale
firing.  To keep the simulation faithful to CUDA's capture semantics we
materialize each record as a fresh :class:`~repro.cluster.gpu.Event` — one
event object per synchronization point, which is exactly the semantic
object CUDA captures under the hood.
"""

from __future__ import annotations

from typing import Tuple

from ..cluster.gpu import Event, Stream
from ..cluster.ipc import IpcEventHandle, IpcRegistry


def snapshot_event(stream: Stream, label: str = "snapshot") -> Event:
    """Record a fresh event at the stream's current tail.

    The returned event fires when every operation currently enqueued on
    ``stream`` has executed — the simulation analogue of
    ``cudaEventRecord(event, stream)``.
    """
    event = Event(name=label)
    stream.record_event(event)
    return event


def export_snapshot(
    stream: Stream, ipc: IpcRegistry, label: str = "snapshot"
) -> Tuple[Event, IpcEventHandle]:
    """Record a snapshot event and export it for the peer process."""
    event = snapshot_event(stream, label)
    return event, ipc.export_event(event)


def bridge_wait(stream: Stream, ipc: IpcRegistry, handle: IpcEventHandle) -> Event:
    """Open a peer's event handle and make ``stream`` wait on it."""
    event = ipc.open_event(handle)
    stream.wait_event(event)
    return event
