"""Hosts and NICs of the simulated cluster.

A :class:`Host` groups GPUs and NICs, owns the host-local IPC registry and
knows its fabric endpoints.  The GPU->NIC affinity is the testbed's: GPU k
of a host sends inter-host traffic through NIC k (the paper emulates "two
50Gbps virtual NICs (one per GPU)" by rate-limiting IB traffic classes;
our fabric gives each virtual NIC its own capacitated link instead, which
is equivalent at the fluid level).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from ..netsim.fabric import local_link_id, nic_node
from .gpu import GpuDevice
from .ipc import IpcRegistry


@dataclass
class Nic:
    """One (possibly virtual) NIC: an endpoint node in the fabric.

    ``alive`` is flipped by fault injection; dead NICs are skipped by the
    channel->NIC rotation, so re-established connections fail over to the
    host's surviving NICs.
    """

    host_id: int
    index: int
    gbps: float
    alive: bool = True

    @property
    def node_id(self) -> str:
        return nic_node(self.host_id, self.index)


@dataclass
class Host:
    """A server with GPUs and NICs.

    Attributes:
        host_id: Cluster-wide host index.
        rack: Rack (leaf) index, derived from the fabric spec.
        gpus: The host's GPUs, ordered by local index.
        nics: The host's NICs, ordered by index.
        sysfs_visible: Whether guests can read the PCIe topology; public
            cloud virtualization typically hides it (§4.2), which is why
            a tenant-side NCCL cannot optimize the intra-host strategy.
        alive: False once the host has crashed (fault injection); a dead
            host's GPUs, NICs and proxy engines are unusable.
    """

    host_id: int
    rack: int
    gpus: List[GpuDevice] = field(default_factory=list)
    nics: List[Nic] = field(default_factory=list)
    sysfs_visible: bool = False
    alive: bool = True
    ipc: IpcRegistry = field(init=False)
    #: The path of every intra-host connection: one tuple per host.
    local_path: Tuple[str] = field(init=False)

    def __post_init__(self) -> None:
        self.ipc = IpcRegistry(self.host_id)
        self.local_path = (local_link_id(self.host_id),)

    @property
    def local_link(self) -> str:
        """Link id of the intra-host (NVLink/shm) channel."""
        return self.local_path[0]

    def gpu(self, local_index: int) -> GpuDevice:
        return self.gpus[local_index]

    def alive_nics(self) -> List[Nic]:
        """The host's NICs that have not failed, in index order."""
        return [nic for nic in self.nics if nic.alive]

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"Host(id={self.host_id}, rack={self.rack}, "
            f"gpus={len(self.gpus)}, nics={len(self.nics)})"
        )
