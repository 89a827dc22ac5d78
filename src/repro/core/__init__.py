"""MCCS: Managed Collective Communication as a Service — the core system.

The paper's contribution: a provider-controlled collective communication
service with an NCCL-like tenant interface.  Applications use
:class:`~repro.core.shim.MccsClient` (the shim library); the provider uses
:class:`~repro.core.deployment.MccsDeployment` (the management surface)
and the policies under :mod:`repro.core.policies`.
"""

from .communicator import CollectiveInstance, ServiceCommunicator, VersionedDataPath
from .deployment import MccsDeployment
from .elastic import ElasticCoordinator, MembershipChange
from .memory import ManagedAllocation, MemoryManager
from .messages import (
    AllocateRequest,
    AllocateResponse,
    BufferRef,
    CollectiveRequest,
    CollectiveResponse,
    CommandQueue,
    CreateCommunicatorRequest,
    CreateCommunicatorResponse,
    DestroyCommunicatorRequest,
    FreeRequest,
)
from .proxy import ProxyEngine
from .reconfig import (
    DEFAULT_CONTROL_RING_LATENCY,
    ControlBarrier,
    ReconfigManager,
    ReconfigSession,
)
from .recovery import HeartbeatMonitor, RecoveryManager, fault_kind
from .service import FrontendEngine, MccsService
from .shim import ClientCollective, MccsBuffer, MccsClient, MccsCommunicator
from .strategy import CollectiveStrategy, default_strategy
from .tracing import DEFAULT_TRACE_CAPACITY, CommTrace, TraceRecord
from .transport import TrafficGateManager, WindowSchedule

__all__ = [
    "AllocateRequest",
    "AllocateResponse",
    "BufferRef",
    "ClientCollective",
    "CollectiveInstance",
    "CollectiveRequest",
    "CollectiveResponse",
    "CollectiveStrategy",
    "CommTrace",
    "CommandQueue",
    "ControlBarrier",
    "CreateCommunicatorRequest",
    "CreateCommunicatorResponse",
    "DEFAULT_CONTROL_RING_LATENCY",
    "DEFAULT_TRACE_CAPACITY",
    "DestroyCommunicatorRequest",
    "ElasticCoordinator",
    "FreeRequest",
    "FrontendEngine",
    "HeartbeatMonitor",
    "ManagedAllocation",
    "MccsBuffer",
    "MccsClient",
    "MccsCommunicator",
    "MccsDeployment",
    "MccsService",
    "MembershipChange",
    "MemoryManager",
    "ProxyEngine",
    "ReconfigManager",
    "ReconfigSession",
    "RecoveryManager",
    "ServiceCommunicator",
    "TraceRecord",
    "TrafficGateManager",
    "VersionedDataPath",
    "WindowSchedule",
    "default_strategy",
    "fault_kind",
]
