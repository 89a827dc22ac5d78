"""Path selection: ECMP hashing and explicit route-ID control.

The paper contrasts two regimes:

* **ECMP** — the datacenter default.  Each connection is hashed onto one of
  the equal-cost paths; collisions are possible and are exactly what the
  MCCS(-FA) ablation suffers from in Figures 6 and 8.
* **Route-ID (source-routed) control** — MCCS's transport engine stamps
  each RDMA connection with a route id (the prototype encodes it in the
  RoCEv2 UDP source port and installs matching policy routes on the
  switch).  Here a :class:`RouteMap` plays the role of that switch policy
  table: it pins a (src, dst, connection-key) triple to a specific path
  index, and the :class:`RouteIdSelector` honours it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from .errors import NoPathError
from .topology import Topology

ConnectionKey = Tuple[str, str, str]
"""(src endpoint, dst endpoint, discriminator) identifying one connection."""


def ecmp_hash(key: ConnectionKey, num_paths: int, seed: int = 0) -> int:
    """Deterministic ECMP hash of a connection key onto a path index.

    A cryptographic digest keyed by ``seed`` stands in for the switch's
    5-tuple hash.  Different seeds model different (random) hash functions
    across experiment trials, which is what produces the collision-induced
    variance shown as shaded 95% intervals in Figure 6.
    """
    if num_paths <= 0:
        raise ValueError("num_paths must be positive")
    material = f"{seed}|{key[0]}|{key[1]}|{key[2]}".encode()
    digest = hashlib.blake2b(material, digest_size=8).digest()
    return int.from_bytes(digest, "big") % num_paths


class PathSelector:
    """Interface: pick a concrete path for a connection."""

    def select(
        self, topology: Topology, key: ConnectionKey
    ) -> Tuple[str, ...]:  # pragma: no cover - interface
        """One of ``topology.shortest_paths(*key[:2])``: the topology's
        shared, cached tuple itself, never a copy, so every connection,
        flow and trace of a route holds one path object."""
        raise NotImplementedError


class EcmpSelector(PathSelector):
    """Hash-based selection among the equal-cost shortest paths."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed

    def select(self, topology: Topology, key: ConnectionKey) -> Tuple[str, ...]:
        paths = topology.shortest_paths(key[0], key[1])
        return paths[ecmp_hash(key, len(paths), self.seed)]


@dataclass
class RouteMap:
    """Connection -> route-id assignments issued by a policy (FFA/PFA).

    ``route_id`` indexes into the sorted equal-cost path list of the
    connection's endpoints, mirroring how the prototype's switch policy
    maps UDP source ports to routes.
    """

    assignments: Dict[ConnectionKey, int] = field(default_factory=dict)

    def assign(self, key: ConnectionKey, route_id: int) -> None:
        if route_id < 0:
            raise ValueError("route_id must be non-negative")
        self.assignments[key] = route_id

    def route_id(self, key: ConnectionKey) -> Optional[int]:
        return self.assignments.get(key)

    def __len__(self) -> int:
        return len(self.assignments)


class RouteIdSelector(PathSelector):
    """Honour a :class:`RouteMap`; fall back to ECMP for unmapped flows.

    The fallback matches the deployment story in §5: tenants that are not
    (yet) managed simply see normal ECMP behaviour.
    """

    def __init__(self, route_map: RouteMap, fallback_seed: int = 0) -> None:
        self.route_map = route_map
        self._fallback = EcmpSelector(fallback_seed)

    def select(self, topology: Topology, key: ConnectionKey) -> Tuple[str, ...]:
        paths = topology.shortest_paths(key[0], key[1])
        route_id = self.route_map.route_id(key)
        if route_id is None:
            # Inline ECMP over the already-enumerated paths; delegating to
            # the fallback selector would enumerate them a second time.
            route_id = ecmp_hash(key, len(paths), self._fallback.seed)
        elif route_id >= len(paths):
            raise NoPathError(
                f"route id {route_id} out of range for {key[0]}->{key[1]} "
                f"({len(paths)} paths)"
            )
        return paths[route_id]


# ----------------------------------------------------------------------
# datacenter scale: O(1) path synthesis on multi-pod Clos fabrics
# ----------------------------------------------------------------------
def clos_path(
    spec,
    src_host: int,
    src_nic: int,
    dst_host: int,
    dst_nic: int,
    spine: int,
    core: int,
) -> Tuple[str, ...]:
    """Synthesize a concrete link-id path between two NIC endpoints.

    Uses the multi-pod fabric's naming scheme (``src->dst`` link ids)
    directly, so no path search runs — on an 8192-GPU fabric a BFS per
    connection is exactly the kind of per-flow cost the scale work
    removes.  ``spine``/``core`` pick the ECMP choice at each tier;
    inter-pod paths cross ``core{core}`` via the chosen spine of each
    pod.  ``spec`` is a :class:`~repro.netsim.fabric.MultiPodSpec`.
    """
    from .fabric import nic_node

    src = nic_node(src_host, src_nic)
    dst = nic_node(dst_host, dst_nic)
    src_pod = spec.pod_of_host(src_host)
    dst_pod = spec.pod_of_host(dst_host)
    src_leaf = (
        f"pod{src_pod}.leaf{spec.leaf_of_host(src_host) % spec.leaves_per_pod}"
    )
    dst_leaf = (
        f"pod{dst_pod}.leaf{spec.leaf_of_host(dst_host) % spec.leaves_per_pod}"
    )
    if src_leaf == dst_leaf:
        return (f"{src}->{src_leaf}", f"{dst_leaf}->{dst}")
    if src_pod == dst_pod:
        spine_node = f"pod{src_pod}.spine{spine}"
        return (
            f"{src}->{src_leaf}",
            f"{src_leaf}->{spine_node}",
            f"{spine_node}->{dst_leaf}",
            f"{dst_leaf}->{dst}",
        )
    src_spine = f"pod{src_pod}.spine{spine}"
    dst_spine = f"pod{dst_pod}.spine{spine}"
    core_node = f"core{core}"
    return (
        f"{src}->{src_leaf}",
        f"{src_leaf}->{src_spine}",
        f"{src_spine}->{core_node}",
        f"{core_node}->{dst_spine}",
        f"{dst_spine}->{dst_leaf}",
        f"{dst_leaf}->{dst}",
    )

