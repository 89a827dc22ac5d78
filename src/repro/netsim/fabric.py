"""Concrete network fabrics used throughout the paper's evaluation.

Three fabrics appear in the paper:

* ``spine_leaf`` — the general folded-Clos used both for the testbed
  (Figure 5a: 2 spines, 2 leaves, 2 hosts per leaf, 100G host links, 50G
  fabric links, 2:1 oversubscription) and for the large-scale simulation of
  §6.5 (16 spines, 24 leaves, 4 hosts per leaf, 8 NICs per host, 200G
  everywhere).
* ``switch_ring`` — the 4-switch ring of Figure 7 used to showcase dynamic
  ring reconfiguration around a background flow.
* helper naming functions shared with :mod:`repro.cluster` so hosts and
  NICs agree on endpoint ids.

Node naming conventions (relied upon by the cluster layer):

* spines:   ``spine0``, ``spine1``, ...
* leaves:   ``leaf0``, ``leaf1``, ...
* NICs:     ``h{host}.nic{k}`` — these are the flow endpoints.
* local:    ``h{host}.local.src`` / ``h{host}.local.dst`` joined by the
  single intra-host link ``h{host}.local`` which models NVLink / host
  shared-memory channels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from .topology import Topology
from .units import gBps, gbps

def nic_node(host: int, nic: int) -> str:
    """Endpoint node id of NIC ``nic`` on host ``host``."""
    return f"h{host}.nic{nic}"


def local_link_id(host: int) -> str:
    """Id of the intra-host (NVLink / shm) link of ``host``."""
    return f"h{host}.local"


@dataclass
class FabricSpec:
    """Parameters of a folded-Clos fabric.

    Defaults match the paper's testbed (Figure 5a): 2 racks of 2 hosts, one
    100 Gbps NIC per host split into two 50 Gbps virtual NICs by traffic
    classes, 50 Gbps fabric links, 2:1 oversubscription.
    """

    num_spines: int = 2
    num_leaves: int = 2
    hosts_per_leaf: int = 2
    nics_per_host: int = 2
    nic_gbps: float = 50.0
    fabric_gbps: float = 50.0
    local_gBps: float = 25.0  # intra-host channel (host shm / NVLink)
    name: str = "spine-leaf"

    @property
    def num_hosts(self) -> int:
        return self.num_leaves * self.hosts_per_leaf

    def leaf_of_host(self, host: int) -> int:
        if not 0 <= host < self.num_hosts:
            raise ValueError(f"host {host} out of range")
        return host // self.hosts_per_leaf

    def hosts_of_leaf(self, leaf: int) -> List[int]:
        return list(
            range(leaf * self.hosts_per_leaf, (leaf + 1) * self.hosts_per_leaf)
        )


@dataclass
class Fabric:
    """A built fabric: the topology plus the spec that produced it."""

    spec: FabricSpec
    topology: Topology
    # Equal-cost route count between two hosts in different racks; this is
    # what the paper calls the "number of network multi-path choices".
    num_fabric_paths: int = field(default=0)

    def rack_of(self, host: int) -> int:
        return self.spec.leaf_of_host(host)

    def same_rack(self, host_a: int, host_b: int) -> bool:
        return self.rack_of(host_a) == self.rack_of(host_b)


def spine_leaf(spec: FabricSpec | None = None) -> Fabric:
    """Build a folded-Clos spine-leaf fabric from ``spec``.

    Every NIC endpoint gets a duplex link to its leaf at ``nic_gbps``;
    every (leaf, spine) pair gets a duplex link at ``fabric_gbps``.  Each
    host also gets one intra-host link at ``local_gBps`` carrying NVLink /
    shared-memory traffic.
    """
    spec = spec or FabricSpec()
    topo = Topology(spec.name)
    for s in range(spec.num_spines):
        topo.add_node(f"spine{s}", kind="spine")
    for l in range(spec.num_leaves):
        topo.add_node(f"leaf{l}", kind="leaf")
        for s in range(spec.num_spines):
            topo.add_duplex_link(f"leaf{l}", f"spine{s}", gbps(spec.fabric_gbps))
    for host in range(spec.num_hosts):
        leaf = spec.leaf_of_host(host)
        for k in range(spec.nics_per_host):
            node = topo.add_node(nic_node(host, k), kind="nic", host=host, nic=k)
            del node
            topo.add_duplex_link(nic_node(host, k), f"leaf{leaf}", gbps(spec.nic_gbps))
        topo.add_node(f"h{host}.local.src", kind="local", host=host)
        topo.add_node(f"h{host}.local.dst", kind="local", host=host)
        topo.add_link(
            f"h{host}.local.src",
            f"h{host}.local.dst",
            gBps(spec.local_gBps),
            link_id=local_link_id(host),
        )
    return Fabric(spec=spec, topology=topo, num_fabric_paths=spec.num_spines)


def testbed_fabric() -> Fabric:
    """The exact testbed of Figure 5a.

    Four nodes, each with 2 GPUs and one 100 Gbps ConnectX-5 NIC split into
    two 50 Gbps virtual NICs (one per GPU) using IB traffic classes; two
    leaf and two spine switches with 50 Gbps inter-switch links, i.e. a 2:1
    oversubscription ratio.
    """
    return spine_leaf(
        FabricSpec(
            num_spines=2,
            num_leaves=2,
            hosts_per_leaf=2,
            nics_per_host=2,
            nic_gbps=50.0,
            fabric_gbps=50.0,
            name="testbed-fig5a",
        )
    )


def large_cluster_fabric() -> Fabric:
    """The §6.5 simulation fabric: 768 GPUs.

    16 spine and 24 leaf switches fully connected; 4 hosts per leaf; each
    host has 8 GPUs and 8 NICs; all links and NICs are 200 Gbps, yielding a
    2:1 oversubscription (32 host-facing 200G ports vs 16 spine-facing 200G
    ports per leaf).
    """
    return spine_leaf(
        FabricSpec(
            num_spines=16,
            num_leaves=24,
            hosts_per_leaf=4,
            nics_per_host=8,
            nic_gbps=200.0,
            fabric_gbps=200.0,
            # 8-GPU NVSwitch hosts: aggregate intra-host fabric bandwidth
            # is in the TB/s class, so the network, not NVLink, is the
            # bottleneck for inter-host rings.
            local_gBps=2400.0,
            name="large-cluster-6.5",
        )
    )


@dataclass
class MultiPodSpec:
    """Parameters of a three-tier multi-pod Clos (fat-tree) fabric.

    A *pod* is a self-contained spine-leaf Clos; pods are joined by a
    core tier every pod spine uplinks into.  Intra-pod traffic never
    leaves the pod, so pod-local flow populations share no link with
    another pod's.

    Defaults build a 4-pod / 1024-GPU fabric; the ROADMAP north-star
    scales (e.g. ``pods=16, leaves_per_pod=16``, 8192 GPUs, or
    ``pods=32, leaves_per_pod=16, hosts_per_leaf=8``, 32768 GPUs) are a
    spec away — construction is O(nodes + links) with no path search.
    """

    pods: int = 4
    spines_per_pod: int = 4
    leaves_per_pod: int = 8
    hosts_per_leaf: int = 4
    nics_per_host: int = 8
    core_switches: int = 4
    nic_gbps: float = 200.0
    fabric_gbps: float = 200.0
    core_gbps: float = 400.0
    local_gBps: float = 2400.0
    name: str = "multi-pod-clos"

    @property
    def hosts_per_pod(self) -> int:
        return self.leaves_per_pod * self.hosts_per_leaf

    @property
    def num_hosts(self) -> int:
        return self.pods * self.hosts_per_pod

    @property
    def gpus(self) -> int:
        """One GPU per NIC, matching the paper's host model."""
        return self.num_hosts * self.nics_per_host

    def pod_of_host(self, host: int) -> int:
        if not 0 <= host < self.num_hosts:
            raise ValueError(f"host {host} out of range")
        return host // self.hosts_per_pod

    def leaf_of_host(self, host: int) -> int:
        """Global leaf index (pod-major) of ``host``."""
        if not 0 <= host < self.num_hosts:
            raise ValueError(f"host {host} out of range")
        return host // self.hosts_per_leaf

    def hosts_of_leaf(self, leaf: int) -> List[int]:
        return list(
            range(leaf * self.hosts_per_leaf, (leaf + 1) * self.hosts_per_leaf)
        )


def multi_pod_clos(spec: MultiPodSpec | None = None) -> Fabric:
    """Build a three-tier multi-pod Clos fabric from ``spec``.

    Node naming (host numbering is global and pod-major, so
    :func:`nic_node` endpoints stay compatible with the cluster layer):

    * cores:  ``core0``, ``core1``, ...
    * spines: ``pod{p}.spine{s}`` (uplinked to every core)
    * leaves: ``pod{p}.leaf{l}`` (uplinked to every spine of pod ``p``)
    * NICs / local links: as in :func:`spine_leaf`

    Every switch and NIC node carries a ``pod`` attribute for
    pod-aware placement.
    """
    spec = spec or MultiPodSpec()
    topo = Topology(spec.name)
    for c in range(spec.core_switches):
        topo.add_node(f"core{c}", kind="core")
    for p in range(spec.pods):
        for s in range(spec.spines_per_pod):
            spine = f"pod{p}.spine{s}"
            topo.add_node(spine, kind="spine", pod=p)
            for c in range(spec.core_switches):
                topo.add_duplex_link(spine, f"core{c}", gbps(spec.core_gbps))
        for l in range(spec.leaves_per_pod):
            leaf = f"pod{p}.leaf{l}"
            topo.add_node(leaf, kind="leaf", pod=p)
            for s in range(spec.spines_per_pod):
                topo.add_duplex_link(
                    leaf, f"pod{p}.spine{s}", gbps(spec.fabric_gbps)
                )
    for host in range(spec.num_hosts):
        pod = spec.pod_of_host(host)
        leaf = f"pod{pod}.leaf{spec.leaf_of_host(host) % spec.leaves_per_pod}"
        for k in range(spec.nics_per_host):
            topo.add_node(nic_node(host, k), kind="nic", host=host, nic=k, pod=pod)
            topo.add_duplex_link(nic_node(host, k), leaf, gbps(spec.nic_gbps))
        topo.add_node(f"h{host}.local.src", kind="local", host=host, pod=pod)
        topo.add_node(f"h{host}.local.dst", kind="local", host=host, pod=pod)
        topo.add_link(
            f"h{host}.local.src",
            f"h{host}.local.dst",
            gBps(spec.local_gBps),
            link_id=local_link_id(host),
        )
    fabric = Fabric(
        spec=spec, topology=topo, num_fabric_paths=spec.spines_per_pod
    )
    return fabric


@dataclass
class RegionSpec:
    """Parameters of a geo-distributed multi-region fabric.

    Each region is a self-contained spine-leaf Clos; regions are joined
    by **WAN links** — high-RTT, low-bandwidth duplex cables between
    per-region border routers, full-meshed so any region pair is one WAN
    hop apart.  This is the Prime-CCL scenario family: training jobs
    spanning regions whose inter-region bandwidth is orders of magnitude
    below the intra-region fabric and may drift while collectives run.

    The spec duck-types :class:`FabricSpec` for the cluster layer
    (``num_hosts`` / ``nics_per_host`` / ``leaf_of_host`` / ...) and adds
    ``region_of_host`` — its presence is what gives WAN-crossing
    communicators a distinct topology fingerprint in the autotuner.

    ``wan_rtt`` is the one-way inter-region propagation delay in
    seconds.  The fluid flow model carries capacities, not delays, so
    the RTT is consumed by the workload layer
    (:func:`repro.workloads.traces.geo_distributed_trace`) as extra
    per-sync latency.
    """

    regions: int = 2
    spines_per_region: int = 2
    leaves_per_region: int = 2
    hosts_per_leaf: int = 2
    nics_per_host: int = 2
    nic_gbps: float = 50.0
    fabric_gbps: float = 50.0
    wan_gbps: float = 10.0
    wan_rtt: float = 0.03
    local_gBps: float = 25.0
    name: str = "multi-region"

    @property
    def hosts_per_region(self) -> int:
        return self.leaves_per_region * self.hosts_per_leaf

    @property
    def num_leaves(self) -> int:
        return self.regions * self.leaves_per_region

    @property
    def num_spines(self) -> int:
        return self.regions * self.spines_per_region

    @property
    def num_hosts(self) -> int:
        return self.regions * self.hosts_per_region

    def region_of_host(self, host: int) -> int:
        if not 0 <= host < self.num_hosts:
            raise ValueError(f"host {host} out of range")
        return host // self.hosts_per_region

    def leaf_of_host(self, host: int) -> int:
        """Global leaf index (region-major) of ``host``."""
        if not 0 <= host < self.num_hosts:
            raise ValueError(f"host {host} out of range")
        return host // self.hosts_per_leaf

    def hosts_of_leaf(self, leaf: int) -> List[int]:
        return list(
            range(leaf * self.hosts_per_leaf, (leaf + 1) * self.hosts_per_leaf)
        )

    def hosts_of_region(self, region: int) -> List[int]:
        if not 0 <= region < self.regions:
            raise ValueError(f"region {region} out of range")
        return list(
            range(
                region * self.hosts_per_region,
                (region + 1) * self.hosts_per_region,
            )
        )


def wan_link_id(src_region: int, dst_region: int) -> str:
    """Id of the directed WAN link from one region's border to another's."""
    return f"wan:r{src_region}->r{dst_region}"


def multi_region(spec: RegionSpec | None = None) -> Fabric:
    """Build a multi-region fabric: per-region Clos joined by WAN links.

    Node naming (host numbering is global and region-major, so
    :func:`nic_node` endpoints stay compatible with the cluster layer):

    * borders: ``r{r}.border`` — one WAN-facing router per region,
      uplinked from every spine of the region at ``fabric_gbps``
    * spines:  ``r{r}.spine{s}``
    * leaves:  ``r{r}.leaf{l}`` (uplinked to every spine of region ``r``)
    * WAN:     ``wan:r{a}->r{b}`` duplex pairs at ``wan_gbps``, full mesh
    * NICs / local links: as in :func:`spine_leaf`

    Every switch and NIC node carries a ``region`` attribute.
    """
    spec = spec or RegionSpec()
    topo = Topology(spec.name)
    for r in range(spec.regions):
        topo.add_node(f"r{r}.border", kind="border", region=r)
        for s in range(spec.spines_per_region):
            spine = f"r{r}.spine{s}"
            topo.add_node(spine, kind="spine", region=r)
            topo.add_duplex_link(spine, f"r{r}.border", gbps(spec.fabric_gbps))
        for l in range(spec.leaves_per_region):
            leaf = f"r{r}.leaf{l}"
            topo.add_node(leaf, kind="leaf", region=r)
            for s in range(spec.spines_per_region):
                topo.add_duplex_link(
                    leaf, f"r{r}.spine{s}", gbps(spec.fabric_gbps)
                )
    for a in range(spec.regions):
        for b in range(a + 1, spec.regions):
            topo.add_link(
                f"r{a}.border",
                f"r{b}.border",
                gbps(spec.wan_gbps),
                link_id=wan_link_id(a, b),
            )
            topo.add_link(
                f"r{b}.border",
                f"r{a}.border",
                gbps(spec.wan_gbps),
                link_id=wan_link_id(b, a),
            )
    for host in range(spec.num_hosts):
        region = spec.region_of_host(host)
        leaf = (
            f"r{region}.leaf"
            f"{spec.leaf_of_host(host) % spec.leaves_per_region}"
        )
        for k in range(spec.nics_per_host):
            topo.add_node(
                nic_node(host, k), kind="nic", host=host, nic=k, region=region
            )
            topo.add_duplex_link(nic_node(host, k), leaf, gbps(spec.nic_gbps))
        topo.add_node(f"h{host}.local.src", kind="local", host=host, region=region)
        topo.add_node(f"h{host}.local.dst", kind="local", host=host, region=region)
        topo.add_link(
            f"h{host}.local.src",
            f"h{host}.local.dst",
            gBps(spec.local_gBps),
            link_id=local_link_id(host),
        )
    return Fabric(
        spec=spec, topology=topo, num_fabric_paths=spec.spines_per_region
    )


def wan_links(fabric: Fabric) -> List[str]:
    """All inter-region WAN link ids of a :func:`multi_region` fabric."""
    return sorted(
        link_id
        for link_id in fabric.topology.links
        if link_id.startswith("wan:")
    )


@dataclass
class RingFabricSpec:
    """Parameters for the Figure 7 showcase fabric."""

    num_switches: int = 4
    nics_per_host: int = 2
    nic_gbps: float = 100.0
    fabric_gbps: float = 100.0
    local_gBps: float = 25.0
    name: str = "switch-ring-fig7"

    @property
    def num_hosts(self) -> int:
        return self.num_switches


def switch_ring(spec: RingFabricSpec | None = None) -> Fabric:
    """Build the Figure 7a fabric: one host per switch, switches in a ring.

    Each host connects to its own switch; the four switches are cabled in a
    ring, so between any two adjacent hosts there is a clockwise and a
    counterclockwise direction, and a background flow on one inter-switch
    link only degrades rings routed through it.
    """
    spec = spec or RingFabricSpec()
    topo = Topology(spec.name)
    n = spec.num_switches
    for s in range(n):
        topo.add_node(f"sw{s}", kind="switch")
    for s in range(n):
        topo.add_duplex_link(f"sw{s}", f"sw{(s + 1) % n}", gbps(spec.fabric_gbps))
    for host in range(n):
        for k in range(spec.nics_per_host):
            topo.add_node(nic_node(host, k), kind="nic", host=host, nic=k)
            topo.add_duplex_link(nic_node(host, k), f"sw{host}", gbps(spec.nic_gbps))
        topo.add_node(f"h{host}.local.src", kind="local", host=host)
        topo.add_node(f"h{host}.local.dst", kind="local", host=host)
        topo.add_link(
            f"h{host}.local.src",
            f"h{host}.local.dst",
            gBps(spec.local_gBps),
            link_id=local_link_id(host),
        )

    ring_spec = FabricSpec(
        num_spines=0,
        num_leaves=n,
        hosts_per_leaf=1,
        nics_per_host=spec.nics_per_host,
        nic_gbps=spec.nic_gbps,
        fabric_gbps=spec.fabric_gbps,
        local_gBps=spec.local_gBps,
        name=spec.name,
    )
    return Fabric(spec=ring_spec, topology=topo, num_fabric_paths=1)


def intra_host_path(fabric: Fabric, host: int) -> List[str]:
    """Path used by flows between two GPUs of the same host."""
    return [local_link_id(host)]


def fabric_paths(fabric: Fabric, src_nic: str, dst_nic: str) -> List[List[str]]:
    """All equal-cost paths between two NIC endpoints."""
    return fabric.topology.equal_cost_paths(src_nic, dst_nic)


def spine_links(fabric: Fabric) -> List[str]:
    """All leaf->spine and spine->leaf link ids (the oversubscribed tier)."""
    result = []
    for link in fabric.topology.links.values():
        if link.src.startswith("spine") or link.dst.startswith("spine"):
            result.append(link.link_id)
    return sorted(result)
