"""Simulated cluster substrate: GPUs, streams, events, NICs, hosts.

Stands in for the paper's testbed hardware (RTX 3090s + ConnectX-5 NICs)
and for the 768-GPU simulated cluster, while preserving the CUDA semantics
(streams, events, IPC handles) MCCS's design depends on.
"""

from .gpu import (
    AsyncOp,
    CallbackOp,
    ComputeOp,
    DeviceBuffer,
    Event,
    GpuDevice,
    RecordEventOp,
    Stream,
    StreamOp,
    WaitEventOp,
)
from .host import Host, Nic
from .ipc import IpcError, IpcEventHandle, IpcMemHandle, IpcRegistry
from .placement import ClusterAllocator
from .specs import (
    Cluster,
    custom_cluster,
    large_cluster,
    ring_cluster,
    testbed_cluster,
)

__all__ = [
    "AsyncOp",
    "CallbackOp",
    "Cluster",
    "ClusterAllocator",
    "ComputeOp",
    "DeviceBuffer",
    "Event",
    "GpuDevice",
    "Host",
    "IpcError",
    "IpcEventHandle",
    "IpcMemHandle",
    "IpcRegistry",
    "Nic",
    "RecordEventOp",
    "Stream",
    "StreamOp",
    "WaitEventOp",
    "custom_cluster",
    "large_cluster",
    "ring_cluster",
    "testbed_cluster",
]
