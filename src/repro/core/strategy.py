"""Collective strategy descriptors.

A :class:`CollectiveStrategy` is everything the provider can decide for a
communicator: the algorithm family, the ring ordering (or tree layout),
how many channels to open, and which route id each inter-host connection
should be pinned to.  Strategies are versioned; the reconfiguration
protocol (§4.2) moves a communicator from one version to the next without
interrupting the application.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..collectives.ring import RingSchedule, identity_ring


@dataclass(frozen=True)
class CollectiveStrategy:
    """Provider-chosen implementation plan for one communicator.

    Attributes:
        ring: The ring schedule (rank permutation).
        channels: Number of connections per peer pair (>= 1); the paper's
            simulator sets this to the number of network multi-path
            choices when rings are provider-optimized.
        algorithm: ``"ring"`` (the prototype's focus) or ``"tree"``.
        route_ids: Optional map from (src rank, dst rank, channel) to a
            route id; populated by the flow-assignment policies (FFA/PFA).
            Connections absent from the map fall back to ECMP.
        version: Monotonic strategy version, bumped per reconfiguration.
    """

    ring: RingSchedule
    channels: int = 1
    algorithm: str = "ring"
    route_ids: Tuple[Tuple[Tuple[int, int, int], int], ...] = ()
    version: int = 0

    def __post_init__(self) -> None:
        if self.channels < 1:
            raise ValueError("channels must be >= 1")
        from .algorithms import registered_algorithms

        if self.algorithm not in registered_algorithms():
            raise ValueError(
                f"unknown algorithm {self.algorithm!r}; "
                f"registered: {registered_algorithms()}"
            )
        world = self.ring.world
        for entry in self.route_ids:
            try:
                (src, dst, channel), route_id = entry
            except (TypeError, ValueError):
                raise ValueError(
                    f"malformed route_ids entry {entry!r}; expected "
                    "((src_rank, dst_rank, channel), route_id)"
                ) from None
            if not (0 <= src < world and 0 <= dst < world):
                raise ValueError(
                    f"route_ids entry {entry!r} names rank(s) outside "
                    f"world {world}"
                )
            if src == dst:
                raise ValueError(
                    f"route_ids entry {entry!r} routes a rank to itself"
                )
            if not 0 <= channel < self.channels:
                raise ValueError(
                    f"route_ids entry {entry!r} uses channel {channel}; "
                    f"strategy has {self.channels} channel(s)"
                )
            if route_id < 0:
                raise ValueError(
                    f"route_ids entry {entry!r} has a negative route id"
                )

    @property
    def world(self) -> int:
        return self.ring.world

    def route_map(self) -> Dict[Tuple[int, int, int], int]:
        """Route assignments as a dict keyed by (src, dst, channel) ranks."""
        return dict(self.route_ids)

    def evolve(
        self,
        *,
        ring: Optional[RingSchedule] = None,
        channels: Optional[int] = None,
        algorithm: Optional[str] = None,
        routes: Optional[Dict[Tuple[int, int, int], int]] = None,
    ) -> "CollectiveStrategy":
        """Produce the next strategy version with the given overrides."""
        return CollectiveStrategy(
            ring=ring if ring is not None else self.ring,
            channels=channels if channels is not None else self.channels,
            algorithm=algorithm if algorithm is not None else self.algorithm,
            route_ids=tuple(sorted(routes.items()))
            if routes is not None
            else self.route_ids,
            version=self.version + 1,
        )


def default_strategy(world: int, channels: int = 1) -> CollectiveStrategy:
    """Initial strategy before any policy runs: rank-order ring, ECMP."""
    return CollectiveStrategy(ring=identity_ring(world), channels=channels)
