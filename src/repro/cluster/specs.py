"""Cluster assembly: fabric + hosts + GPUs + the shared simulator clock.

A :class:`Cluster` ties the substrate together and is the root object the
baselines, the MCCS service and the experiment harness build upon.  The two
standard instantiations correspond to the paper's testbed (Figure 5a) and
its large-scale simulation (§6.5); the Figure 7 ring fabric gets its own
builder.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List, Optional

from ..netsim.engine import FlowSimulator
from ..netsim.errors import HostCrashedError, NicFailedError
from ..netsim.fabric import (
    Fabric,
    FabricSpec,
    RegionSpec,
    RingFabricSpec,
    large_cluster_fabric,
    multi_region,
    switch_ring,
    spine_leaf,
    testbed_fabric,
)
from .gpu import GpuDevice
from .host import Host, Nic


@dataclass
class ClusterSpec:
    """How many GPUs per host and their memory, layered on a fabric spec."""

    fabric: FabricSpec = field(default_factory=FabricSpec)
    gpus_per_host: int = 2
    gpu_memory: int = 24 * 1024**3


class Cluster:
    """The complete simulated installation.

    Attributes:
        sim: The shared :class:`FlowSimulator` clock and network.
        fabric: The built fabric (topology + spec).
        hosts: All hosts, indexed by host id.
        gpus: All GPUs, indexed by global GPU id
            (``host_id * gpus_per_host + local_index``).
        nccl_comm_ids: Numbers the NCCL baseline's communicators built on
            this cluster (their default job id is ``ncclcomm<N>``).
    """

    def __init__(
        self,
        fabric: Fabric,
        gpus_per_host: int,
        gpu_memory: int = 24 * 1024**3,
        interference_penalty: float = 0.0,
    ) -> None:
        self.fabric = fabric
        self.sim = FlowSimulator(
            fabric.topology, interference_penalty=interference_penalty
        )
        self.gpus_per_host = gpus_per_host
        self.hosts: List[Host] = []
        self.gpus: List[GpuDevice] = []
        self.nccl_comm_ids = itertools.count()
        # One id source for every GPU: the journal and the control-plane
        # state key buffers by id alone.
        buffer_ids = itertools.count()
        spec = fabric.spec
        for host_id in range(spec.num_hosts):
            host = Host(host_id=host_id, rack=spec.leaf_of_host(host_id))
            for k in range(spec.nics_per_host):
                host.nics.append(Nic(host_id=host_id, index=k, gbps=spec.nic_gbps))
            for k in range(gpus_per_host):
                gpu = GpuDevice(
                    self.sim,
                    global_id=host_id * gpus_per_host + k,
                    host_id=host_id,
                    local_index=k,
                    buffer_ids=buffer_ids,
                    memory_capacity=gpu_memory,
                )
                host.gpus.append(gpu)
                self.gpus.append(gpu)
            self.hosts.append(host)

    # -- lookups ---------------------------------------------------------
    @property
    def topology(self):
        return self.fabric.topology

    @property
    def num_hosts(self) -> int:
        return len(self.hosts)

    @property
    def num_gpus(self) -> int:
        return len(self.gpus)

    def host_of(self, gpu: GpuDevice) -> Host:
        return self.hosts[gpu.host_id]

    def nic_of(self, gpu: GpuDevice) -> Nic:
        return self.host_of(gpu).nic_for_gpu(gpu)

    def nic_of_channel(self, gpu: GpuDevice, channel: int) -> str:
        """Fabric endpoint used by ``gpu`` for connections of ``channel``.

        Channel 0 uses the GPU's affine NIC; additional channels rotate
        over the host's NICs so multi-channel communicators exercise all
        of them (NCCL's channel->NIC assignment behaves the same way).
        The rotation only considers alive NICs, so connections established
        after a NIC failure fail over to the survivors; with every NIC
        dead (or the host crashed) this raises :class:`NicFailedError`.
        """
        host = self.hosts[gpu.host_id]
        if not host.alive:
            raise HostCrashedError(
                f"host {host.host_id} is down; GPU {gpu.global_id} unreachable"
            )
        nics = host.alive_nics()
        if not nics:
            raise NicFailedError(
                f"host {host.host_id} has no alive NICs for GPU {gpu.global_id}"
            )
        nic = nics[(gpu.local_index + channel) % len(nics)]
        return nic.node_id

    def rack_of(self, gpu: GpuDevice) -> int:
        return self.hosts[gpu.host_id].rack

    def gpu(self, global_id: int) -> GpuDevice:
        return self.gpus[global_id]

    def gpus_of_host(self, host_id: int) -> List[GpuDevice]:
        return list(self.hosts[host_id].gpus)

    def links_of_nic(self, host_id: int, nic_index: int) -> List[str]:
        """Fabric link ids adjacent to one NIC endpoint (both directions)."""
        nic = self.hosts[host_id].nics[nic_index]
        return [link.link_id for link in self.topology.links_of_node(nic.node_id)]

    def links_of_host(self, host_id: int) -> List[str]:
        """Every link that dies with ``host_id``: its NIC uplinks/downlinks
        plus the intra-host (NVLink/shm) channel."""
        host = self.hosts[host_id]
        link_ids = [host.local_link]
        for nic in host.nics:
            link_ids.extend(
                link.link_id for link in self.topology.links_of_node(nic.node_id)
            )
        return link_ids

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"Cluster({self.fabric.spec.name!r}, hosts={self.num_hosts}, "
            f"gpus={self.num_gpus})"
        )


def testbed_cluster(interference_penalty: float = 0.0) -> Cluster:
    """The Figure 5a testbed: 4 hosts x 2 GPUs, 2 racks, 2:1 oversub."""
    return Cluster(
        testbed_fabric(),
        gpus_per_host=2,
        interference_penalty=interference_penalty,
    )


def large_cluster() -> Cluster:
    """The §6.5 simulation cluster: 768 GPUs over 96 hosts in 24 racks."""
    return Cluster(large_cluster_fabric(), gpus_per_host=8)


def multi_region_cluster(
    spec: Optional[RegionSpec] = None,
    *,
    gpus_per_host: int = 1,
) -> Cluster:
    """A geo-distributed installation: per-region Clos fabrics joined by
    high-RTT, low-bandwidth WAN links (the elastic-WAN experiments)."""
    return Cluster(
        multi_region(spec if spec is not None else RegionSpec()),
        gpus_per_host=gpus_per_host,
    )


def ring_cluster() -> Cluster:
    """The Figure 7 showcase: 4 hosts, each on its own switch, switches in
    a ring; 2 GPUs and 2 100G NICs per host (an 8-GPU AllReduce job)."""
    return Cluster(switch_ring(RingFabricSpec()), gpus_per_host=2)


def custom_cluster(
    *,
    num_spines: int,
    num_leaves: int,
    hosts_per_leaf: int,
    gpus_per_host: int,
    nics_per_host: Optional[int] = None,
    nic_gbps: float = 100.0,
    fabric_gbps: float = 100.0,
    name: str = "custom",
) -> Cluster:
    """Build an arbitrary spine-leaf cluster (used by sweeps and tests)."""
    fabric = spine_leaf(
        FabricSpec(
            num_spines=num_spines,
            num_leaves=num_leaves,
            hosts_per_leaf=hosts_per_leaf,
            nics_per_host=nics_per_host if nics_per_host is not None else gpus_per_host,
            nic_gbps=nic_gbps,
            fabric_gbps=fabric_gbps,
            name=name,
        )
    )
    return Cluster(fabric, gpus_per_host=gpus_per_host)
