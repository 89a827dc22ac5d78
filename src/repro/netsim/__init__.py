"""Flow-level network simulator substrate.

This package provides the timing plane of the reproduction: a directed
capacitated :class:`~repro.netsim.topology.Topology`, concrete fabrics
(:mod:`repro.netsim.fabric`), fluid flows shared by weighted max-min
fairness (:mod:`repro.netsim.fairness`), ECMP / route-id path selection
(:mod:`repro.netsim.routing`) and the discrete-event engine
(:class:`~repro.netsim.engine.FlowSimulator`).
"""

from .background import BackgroundFlow, BackgroundTrafficManager
from .engine import FlowSimulator
from .errors import (
    NetSimError,
    NoPathError,
    ReproError,
    SimulationError,
    UnknownLinkError,
    UnknownNodeError,
)
from .fabric import (
    Fabric,
    FabricSpec,
    MultiPodSpec,
    RegionSpec,
    RingFabricSpec,
    fabric_paths,
    intra_host_path,
    large_cluster_fabric,
    local_link_id,
    multi_pod_clos,
    multi_region,
    nic_node,
    spine_leaf,
    spine_links,
    switch_ring,
    testbed_fabric,
    wan_link_id,
    wan_links,
)
from .fairness import bottleneck_rate, progressive_filling
from .flows import Flow
from .routing import (
    ClosEcmpSelector,
    ConnectionKey,
    EcmpSelector,
    PathSelector,
    RandomSelector,
    RouteIdSelector,
    RouteMap,
    clos_path,
    ecmp_hash,
)
from .topology import Link, Node, Topology
from . import units

__all__ = [
    "BackgroundFlow",
    "BackgroundTrafficManager",
    "ClosEcmpSelector",
    "ConnectionKey",
    "EcmpSelector",
    "Fabric",
    "FabricSpec",
    "Flow",
    "FlowSimulator",
    "Link",
    "MultiPodSpec",
    "NetSimError",
    "NoPathError",
    "Node",
    "PathSelector",
    "RandomSelector",
    "ReproError",
    "RegionSpec",
    "RingFabricSpec",
    "RouteIdSelector",
    "RouteMap",
    "SimulationError",
    "Topology",
    "UnknownLinkError",
    "UnknownNodeError",
    "bottleneck_rate",
    "clos_path",
    "ecmp_hash",
    "fabric_paths",
    "intra_host_path",
    "large_cluster_fabric",
    "local_link_id",
    "multi_pod_clos",
    "multi_region",
    "nic_node",
    "progressive_filling",
    "spine_leaf",
    "spine_links",
    "switch_ring",
    "testbed_fabric",
    "units",
    "wan_link_id",
    "wan_links",
]
