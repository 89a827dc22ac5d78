"""Alpha-beta cost models and static algorithm selection.

Traditional libraries pick among their built-in algorithms "based on a set
of static factors like data length and the number of participants" (§2.1,
citing OpenMPI's selection logic).  This module reproduces that style of
decision: a latency (alpha) + bandwidth (beta) model per algorithm and a
selection function that picks the cheaper one for the given size/world.

The same :class:`LatencyModel` supplies the fixed per-collective overheads
used by the timing plane: libraries pay a launch/rendezvous cost per step,
and MCCS additionally pays the shim->service datapath hop, which the paper
measures at 50-80 us (§6.2) and which explains why MCCS(-FA) loses to
NCCL(OR) below 8 MB in Figure 6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .types import validate_world


@dataclass(frozen=True)
class LatencyModel:
    """Fixed overheads of issuing one collective.

    Attributes:
        base: Per-collective launch overhead in seconds (kernel launch,
            rendezvous with peers).
        per_step: Extra latency per pipeline hop, in seconds.
        datapath: Extra one-way datapath latency added by service
            indirection; 0 for an in-process library like NCCL, 50-80 us
            for the MCCS shim->service->engine chain.
    """

    base: float = 12e-6
    per_step: float = 5e-6
    datapath: float = 0.0

    def collective_latency(self, steps: int) -> float:
        """Total fixed time for a collective with ``steps`` pipeline hops."""
        if steps < 0:
            raise ValueError("steps must be non-negative")
        return self.base + self.per_step * steps + self.datapath


#: The library-side model (NCCL in-process).
NCCL_LATENCY = LatencyModel(base=12e-6, per_step=5e-6, datapath=0.0)

#: The middle of the paper's reported 50-80 us shim->service range (§6.2).
DEFAULT_DATAPATH_LATENCY = 65e-6

#: The MCCS model: same engine costs plus the measured IPC hop.
MCCS_LATENCY = LatencyModel(
    base=12e-6, per_step=5e-6, datapath=DEFAULT_DATAPATH_LATENCY
)


def ring_allreduce_cost(
    size: float, world: int, alpha: float, beta: float
) -> float:
    """Alpha-beta cost of ring AllReduce: 2(n-1) steps, 2(n-1)/n * S bytes."""
    validate_world(world)
    return 2 * (world - 1) * alpha + 2 * (world - 1) / world * size * beta


def tree_allreduce_cost(
    size: float, world: int, alpha: float, beta: float
) -> float:
    """Alpha-beta cost of reduce+broadcast over a binary tree.

    2*ceil(log2 n) latency hops.  An interior node receives the full
    vector from each of its two children (and later sends it back down),
    so its NIC moves ~4S bytes per direction pair — twice the ring's
    2(n-1)/n*S ~= 2S.  That is the classic trade: trees win the latency
    term, rings win the bandwidth term.
    """
    validate_world(world)
    depth = max(1, math.ceil(math.log2(world)))
    return 2 * depth * alpha + 4.0 * size * beta


def select_ring_or_tree(
    size: float,
    world: int,
    *,
    alpha: float = 15e-6,
    link_bandwidth: float = 12.5e9,
) -> str:
    """Static ring-vs-tree choice in the style of classic libraries.

    Returns ``"ring"`` or ``"tree"``.  Small messages on large worlds are
    latency-bound and prefer the logarithmic tree; large messages are
    bandwidth-bound and prefer the ring.
    """
    beta = 1.0 / link_bandwidth
    ring = ring_allreduce_cost(size, world, alpha, beta)
    tree = tree_allreduce_cost(size, world, alpha, beta)
    return "ring" if ring <= tree else "tree"


def effective_bandwidth(
    size: float, steps: int, peak: float, model: LatencyModel
) -> float:
    """Achievable bandwidth once fixed overheads are accounted for.

    Used by tests to sanity-check the crossover behaviour: bandwidth
    approaches ``peak`` as ``size`` grows and collapses for tiny sizes.
    """
    transfer = size / peak
    return size / (transfer + model.collective_latency(steps))
