"""Ring schedules and their closed-form traffic model.

:class:`RingSchedule` is the ring a strategy installs;
:func:`edge_traffic` predicts in closed form the bytes each directed ring
edge carries, which the fluid simulator turns into flows.  The bytes
themselves move through the one executor
(:mod:`repro.collectives.executor`) running
:func:`repro.collectives.generators.ring_program`; tests cross-check the
compiled plan's per-edge bytes against this model.

The MCCS prototype ports NCCL's ring AllReduce and AllGather kernels (§5);
we implement those plus ReduceScatter, Broadcast and Reduce, which the
paper notes are straightforward extensions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from .types import Collective, validate_world


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


# ---------------------------------------------------------------------------
# traffic model
# ---------------------------------------------------------------------------
def steps_for(kind: Collective, world: int) -> int:
    """Number of pipeline steps (latency hops) the ring algorithm takes."""
    validate_world(world)
    if kind is Collective.ALL_REDUCE:
        return 2 * (world - 1)
    return world - 1


def edge_traffic(
    kind: Collective,
    out_bytes: int,
    world: int,
    root_position: int = 0,
) -> List[float]:
    """Bytes carried by each directed ring edge.

    Index ``i`` is the edge from ring position ``i`` to ``i+1``.  Sizes
    follow the output-buffer convention (see
    :func:`repro.collectives.types.input_bytes`).
    """
    validate_world(world)
    n = world
    if kind is Collective.ALL_REDUCE:
        per_edge = 2.0 * (n - 1) / n * out_bytes
        return [per_edge] * n
    if kind is Collective.ALL_GATHER:
        per_edge = (n - 1) / n * out_bytes
        return [per_edge] * n
    if kind is Collective.REDUCE_SCATTER:
        # out_bytes is the per-rank output; total vector is n*out_bytes and
        # each edge carries (n-1)/n of it.
        per_edge = float((n - 1) * out_bytes)
        return [per_edge] * n
    if kind in (Collective.BROADCAST, Collective.REDUCE):
        # Pipelined chain of n-1 hops; the edge closing the ring is unused.
        traffic = [float(out_bytes)] * n
        if kind is Collective.BROADCAST:
            unused = (root_position - 1) % n  # edge into the root
        else:
            unused = root_position  # edge out of the root
        traffic[unused] = 0.0
        return traffic
    raise ValueError(f"unsupported collective {kind}")
