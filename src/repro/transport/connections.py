"""Peer-to-peer connections underlying collective traffic.

Both NCCL's "transport agent" and MCCS's "transport engine" establish
point-to-point connections between communicating GPU pairs when a
communicator (or a new collective strategy) is set up, and then push every
collective's traffic over those connections.  Two properties of real
deployments matter for the evaluation and are modelled here:

* **Path selection happens at connection-establishment time.**  Under
  ECMP the switch hashes each connection's 5-tuple once; the same
  connection keeps colliding (or keeps not colliding) for its entire
  lifetime.  This is why re-rolling the ring (or re-establishing
  connections during reconfiguration) can change performance at all.
* **Connections are channel-indexed.**  NCCL "instantiates multiple
  TCP/RDMA connections between nodes ... even though the connections may
  be routed via the same (shared) physical path" (§1); channel ``c`` uses
  NIC ``c mod nics_per_host`` on both ends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from ..cluster.gpu import GpuDevice
from ..cluster.specs import Cluster
from ..netsim.routing import ConnectionKey, PathSelector

EdgeId = Tuple[int, int, int]
"""(src gpu global id, dst gpu global id, channel)"""


@dataclass
class Connection:
    """An established point-to-point connection.

    Attributes:
        src, dst: The endpoint GPUs.
        channel: Channel index; selects which NIC pair is used.
        path: Concrete link-id path the connection is pinned to: the
            selector's answer (the topology's cached tuple) or the host's
            ``local_path``, shared, not copied, with every other
            connection and flow of the route.
        key: The (src endpoint, dst endpoint, discriminator) triple shown
            to the path selector; policies address connections by it.
        intra_host: Whether the connection rides the intra-host channel.
    """

    src: GpuDevice
    dst: GpuDevice
    channel: int
    path: Tuple[str, ...]
    key: ConnectionKey
    intra_host: bool


def connection_key(
    cluster: Cluster,
    src: GpuDevice,
    dst: GpuDevice,
    channel: int,
    discriminator: str,
) -> ConnectionKey:
    """The selector-visible key of an inter-host connection."""
    src_nic = cluster.nic_of_channel(src, channel)
    dst_nic = cluster.nic_of_channel(dst, channel)
    return (src_nic, dst_nic, f"{discriminator}/ch{channel}")


class ConnectionTable:
    """Connections of one communicator configuration.

    The table is (re)built whenever the strategy changes: creating it is
    the analogue of establishing RDMA queue pairs, and
    :meth:`ConnectionTable.teardown` of closing them, which is exactly what
    the MCCS proxy engine does during a reconfiguration (§4.2: "close all
    existing peer-to-peer connections for the communicator and clean up
    corresponding resources").
    """

    def __init__(self, cluster: Cluster, discriminator: str) -> None:
        self.cluster = cluster
        self.discriminator = discriminator
        self._connections: Dict[EdgeId, Connection] = {}
        self.torn_down = False
        # Routing generation the pinned paths were resolved under.  When
        # the topology's epoch moves (link restored / bandwidth resized),
        # the pins are stale: a connection hashed away from a then-down
        # link would otherwise never use it again.
        self._routing_epoch = cluster.topology.routing_epoch

    def establish(
        self,
        edges: Iterable[Tuple[GpuDevice, GpuDevice]],
        channels: int,
        selector: PathSelector,
    ) -> None:
        """Create connections for each (src, dst) pair on every channel."""
        if self.torn_down:
            raise RuntimeError("connection table already torn down")
        for src, dst in edges:
            for channel in range(channels):
                self._establish_one(src, dst, channel, selector)

    def establish_edge(
        self,
        src: GpuDevice,
        dst: GpuDevice,
        channel: int,
        selector: PathSelector,
    ) -> Connection:
        if self.torn_down:
            raise RuntimeError("connection table already torn down")
        return self._establish_one(src, dst, channel, selector)

    def _establish_one(
        self, src: GpuDevice, dst: GpuDevice, channel: int, selector: PathSelector
    ) -> Connection:
        epoch = self.cluster.topology.routing_epoch
        if epoch != self._routing_epoch:
            # Re-resolve every pin: the usable path set widened since the
            # connections were established (restored or resized link).
            self._connections.clear()
            self._routing_epoch = epoch
        edge = (src.global_id, dst.global_id, channel)
        if edge in self._connections:
            return self._connections[edge]
        if src.host_id == dst.host_id:
            conn = Connection(
                src=src,
                dst=dst,
                channel=channel,
                path=self.cluster.hosts[src.host_id].local_path,
                key=("", "", f"{self.discriminator}/local"),
                intra_host=True,
            )
        else:
            key = connection_key(self.cluster, src, dst, channel, self.discriminator)
            conn = Connection(
                src=src,
                dst=dst,
                channel=channel,
                path=selector.select(self.cluster.topology, key),
                key=key,
                intra_host=False,
            )
        self._connections[edge] = conn
        return conn

    # ------------------------------------------------------------------
    def connection(self, src: GpuDevice, dst: GpuDevice, channel: int) -> Connection:
        edge = (src.global_id, dst.global_id, channel)
        try:
            return self._connections[edge]
        except KeyError:
            raise KeyError(f"no connection for edge {edge}") from None

    def connections(self) -> List[Connection]:
        return list(self._connections.values())

    def teardown(self) -> None:
        """Close every connection (idempotent)."""
        self._connections.clear()
        self.torn_down = True

    def __len__(self) -> int:
        return len(self._connections)
