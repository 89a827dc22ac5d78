"""MCCS: Managed Collective Communication as a Service — reproduction.

A full Python reproduction of *MCCS: A Service-based Approach to
Collective Communication for Multi-Tenant Cloud* (Wu et al., ACM SIGCOMM
2024): the MCCS service (shim, frontend/proxy/transport engines, the
Figure 4 reconfiguration barrier, management and tracing APIs), the §4.3
policies (locality rings, FFA, PFA, TS), an NCCL-like baseline, and the
simulated substrate they run on (GPUs/streams/events, spine-leaf fabrics,
a fluid flow-level network simulator with max-min fairness).

Quick start::

    from repro import testbed_cluster, MccsDeployment, CentralManager
    from repro.netsim.units import MB

    cluster = testbed_cluster()
    deployment = MccsDeployment(cluster)
    manager = CentralManager(deployment)

    gpus = [cluster.hosts[h].gpus[0] for h in range(4)]
    comm_state = manager.admit("tenantA", gpus)       # provider side
    client = deployment.connect("tenantA")            # tenant side
    ...

See ``examples/quickstart.py`` for the end-to-end version.
"""

from . import errors
from .baselines import NcclCommunicator
from .cluster import (
    Cluster,
    ClusterAllocator,
    GpuDevice,
    Host,
    custom_cluster,
    large_cluster,
    ring_cluster,
    testbed_cluster,
)
from .collectives import (
    Collective,
    ReduceOp,
    RingSchedule,
    algorithm_bandwidth,
    identity_ring,
)
from .core import (
    CollectiveStrategy,
    MccsBuffer,
    MccsClient,
    MccsCommunicator,
    MccsDeployment,
    ServiceCommunicator,
    WindowSchedule,
)
from .core.controller import CentralManager, PolicyReport
from .telemetry import TelemetryHub
from .netsim import (
    BackgroundTrafficManager,
    FlowSimulator,
    Topology,
    testbed_fabric,
    units,
)
from .workloads import (
    MccsIssuer,
    NcclIssuer,
    TrafficGenerator,
    gpt_tp_trace,
    poisson_arrivals,
    vgg19_dp_trace,
)

__version__ = "1.0.0"

__all__ = [
    "BackgroundTrafficManager",
    "CentralManager",
    "Cluster",
    "ClusterAllocator",
    "Collective",
    "CollectiveStrategy",
    "FlowSimulator",
    "GpuDevice",
    "Host",
    "MccsBuffer",
    "MccsClient",
    "MccsCommunicator",
    "MccsDeployment",
    "MccsIssuer",
    "NcclCommunicator",
    "NcclIssuer",
    "PolicyReport",
    "ReduceOp",
    "RingSchedule",
    "ServiceCommunicator",
    "TelemetryHub",
    "Topology",
    "TrafficGenerator",
    "WindowSchedule",
    "algorithm_bandwidth",
    "custom_cluster",
    "errors",
    "gpt_tp_trace",
    "identity_ring",
    "large_cluster",
    "poisson_arrivals",
    "ring_cluster",
    "testbed_cluster",
    "testbed_fabric",
    "units",
    "vgg19_dp_trace",
]
