"""Ring schedules.

:class:`RingSchedule` is the ring a strategy installs.  The schedule
itself is :func:`repro.collectives.generators.ring_program`: the one
executor (:mod:`repro.collectives.executor`) moves its bytes, and the
flows and step count of the fluid model are read off the same compiled
plan (:mod:`repro.core.algorithms`).  The closed forms the plan's views
are proved against live in ``tests/collectives/oracles.py``.

The MCCS prototype ports NCCL's ring AllReduce and AllGather kernels (§5);
we implement those plus ReduceScatter, Broadcast and Reduce, which the
paper notes are straightforward extensions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from .types import validate_world


@dataclass(frozen=True)
class RingSchedule:
    """A ring over ``world`` ranks.

    ``order[i]`` is the rank sitting at ring position ``i``; data moves
    from position ``i`` to position ``(i+1) % world``.
    """

    order: Tuple[int, ...]

    def __post_init__(self) -> None:
        world = len(self.order)
        validate_world(world)
        if sorted(self.order) != list(range(world)):
            raise ValueError(f"order must be a permutation of 0..{world - 1}")
        # rank -> position lookup; not a dataclass field so eq/hash/repr
        # stay defined by ``order`` alone.
        object.__setattr__(
            self, "_pos", {rank: i for i, rank in enumerate(self.order)}
        )

    @property
    def world(self) -> int:
        return len(self.order)

    def position_of(self, rank: int) -> int:
        try:
            return self._pos[rank]
        except KeyError:
            raise ValueError(f"rank {rank} is not in the ring") from None

    def edges(self) -> List[Tuple[int, int]]:
        """Directed (src_rank, dst_rank) pairs, one per ring edge."""
        n = self.world
        return [
            (self.order[i], self.order[(i + 1) % n]) for i in range(n)
        ]

    def reversed(self) -> "RingSchedule":
        """The same ring traversed in the opposite direction.

        This is the reconfiguration applied in the Figure 7 showcase:
        "MCCS enables the application to recover its collective
        performance by transparently reversing the ring".
        """
        return RingSchedule(tuple(reversed(self.order)))


def identity_ring(world: int) -> RingSchedule:
    """Ring in rank order — what NCCL builds from user-specified ranks."""
    return RingSchedule(tuple(range(world)))
