"""Pluggable collective algorithms for the MCCS proxy engines.

§4.2: the proxy engine "enables the incorporation of various collective
strategies optimized for specific topologies, such as those proposed in
recent research [MSCCL/TACCL/...] or even proprietary strategies developed
in-house by the provider".

This module is that extension point.  An *algorithm* maps one rank's view
of a collective onto the transfers that rank must perform; the registry
resolves :attr:`CollectiveStrategy.algorithm` names to implementations,
and providers can :func:`register_algorithm` their own without touching
the service.

Built-ins:

* ``"ring"`` — the NCCL-style ring schedules (the prototype's focus);
* ``"tree"`` — double-binary-tree AllReduce (ring for other kinds), the
  extension §5 calls straightforward;
* ``"halving_doubling"`` — recursive halving-doubling (butterfly)
  AllReduce for power-of-two worlds (ring otherwise), the latency-optimal
  arm the :mod:`repro.autotune` planner can promote for small messages.

An algorithm also names the chunk program that moves its bytes
(:meth:`CollectiveAlgorithm.plan`); the one executor in
:mod:`repro.collectives.executor` runs it through the shared
:meth:`CollectiveAlgorithm.run_data`, so collectives keep moving real
bytes correctly whichever strategy the provider picks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..collectives.executor import ExecutionPlan, builtin_plan
from ..collectives.halving_doubling import hd_steps, is_power_of_two
from ..collectives.ring import edge_traffic, steps_for
from ..collectives.tree import double_binary_trees, tree_steps
from ..collectives.types import Collective, ReduceOp
from ..netsim.errors import MccsError


@dataclass(frozen=True)
class RankTransfer:
    """One outgoing transfer of one rank within a collective."""

    dst_rank: int
    nbytes: float
    channel: int


@dataclass(frozen=True)
class AlgorithmContext:
    """Everything an algorithm may consult to plan a rank's transfers."""

    kind: Collective
    out_bytes: int
    world: int
    rank: int
    root: int
    ring_order: Sequence[int]
    channels: int


class CollectiveAlgorithm:
    """Interface implemented by every pluggable algorithm."""

    name = "abstract"

    def rank_transfers(self, ctx: AlgorithmContext) -> List[RankTransfer]:
        """Outgoing transfers of ``ctx.rank`` (one flow each)."""
        raise NotImplementedError

    def steps(self, kind: Collective, world: int) -> int:
        """Pipeline hops, for the fixed-latency model."""
        raise NotImplementedError

    def plan(
        self, ctx: AlgorithmContext
    ) -> Tuple[ExecutionPlan, Optional[Sequence[int]]]:
        """The compiled chunk program that moves this collective's bytes,
        and the position -> rank order to run it under (``None`` when
        the plan is already in rank space)."""
        raise NotImplementedError

    def run_data(
        self,
        ctx: AlgorithmContext,
        inputs: Sequence[np.ndarray],
        op: ReduceOp,
        out: Optional[Sequence[np.ndarray]] = None,
    ) -> List[np.ndarray]:
        """Execute the collective on real buffers, writing ``out`` (the
        tenant's receive buffers) in place when given.  Shared by every
        algorithm: the only thing a family chooses is its :meth:`plan`."""
        plan, order = self.plan(ctx)
        return plan.run(inputs, op, order=order, out=out)


def _position_plan(family: str, ctx: AlgorithmContext):
    """A built-in family's plan: compiled once in ring-position space,
    relabelled through the strategy's ring order when it runs."""
    order = ctx.ring_order
    root_pos = list(order).index(ctx.root)
    plan = builtin_plan(family, ctx.kind, ctx.world, root_pos, ctx.channels)
    return plan, order


class RingAlgorithm(CollectiveAlgorithm):
    """The default: NCCL-style rings for every collective kind."""

    name = "ring"

    def rank_transfers(self, ctx: AlgorithmContext) -> List[RankTransfer]:
        order = list(ctx.ring_order)
        pos = order.index(ctx.rank)
        root_pos = order.index(ctx.root)
        per_channel = ctx.out_bytes / ctx.channels
        per_edge = edge_traffic(ctx.kind, per_channel, ctx.world, root_pos)
        nbytes = per_edge[pos]
        if nbytes <= 0:
            return []
        dst = order[(pos + 1) % ctx.world]
        return [
            RankTransfer(dst_rank=dst, nbytes=nbytes, channel=c)
            for c in range(ctx.channels)
        ]

    def steps(self, kind: Collective, world: int) -> int:
        return steps_for(kind, world)

    def plan(self, ctx):
        return _position_plan("ring", ctx)


class DoubleTreeAlgorithm(CollectiveAlgorithm):
    """Double binary trees for AllReduce; other kinds fall back to rings.

    The trees are derived from the strategy's ring order, so a locality-
    optimized order also produces locality-friendly trees.
    """

    name = "tree"

    def __init__(self) -> None:
        self._ring = RingAlgorithm()

    def _trees(self, ctx: AlgorithmContext):
        return double_binary_trees(list(ctx.ring_order))

    def rank_transfers(self, ctx: AlgorithmContext) -> List[RankTransfer]:
        if ctx.kind is not Collective.ALL_REDUCE:
            return self._ring.rank_transfers(ctx)
        transfers: List[RankTransfer] = []
        half = ctx.out_bytes / 2.0
        per_channel = half / ctx.channels
        for tree in self._trees(ctx):
            parent = tree.parent[ctx.rank]
            peers = list(tree.children(ctx.rank))
            if parent != -1:
                peers.append(parent)
            for peer in peers:
                for channel in range(ctx.channels):
                    transfers.append(
                        RankTransfer(dst_rank=peer, nbytes=per_channel, channel=channel)
                    )
        return transfers

    def steps(self, kind: Collective, world: int) -> int:
        if kind is not Collective.ALL_REDUCE:
            return self._ring.steps(kind, world)
        trees = double_binary_trees(range(world))
        return max(tree_steps(t) for t in trees)

    def plan(self, ctx):
        family = "tree" if ctx.kind is Collective.ALL_REDUCE else "ring"
        return _position_plan(family, ctx)


class HalvingDoublingAlgorithm(CollectiveAlgorithm):
    """Recursive halving-doubling AllReduce (butterfly exchange).

    Applies only to AllReduce on power-of-two worlds; everything else
    falls back to rings, mirroring :class:`DoubleTreeAlgorithm`.  The
    strategy's ring order assigns ranks to butterfly positions, so a
    locality order keeps the small-mask (frequent, small-payload)
    exchanges on nearby ranks.
    """

    name = "halving_doubling"

    def __init__(self) -> None:
        self._ring = RingAlgorithm()

    def _applies(self, ctx_kind: Collective, world: int) -> bool:
        return ctx_kind is Collective.ALL_REDUCE and is_power_of_two(world)

    def rank_transfers(self, ctx: AlgorithmContext) -> List[RankTransfer]:
        if not self._applies(ctx.kind, ctx.world):
            return self._ring.rank_transfers(ctx)
        order = list(ctx.ring_order)
        v = order.index(ctx.rank)
        n = ctx.world
        transfers: List[RankTransfer] = []
        mask = n >> 1
        while mask:
            # S*m/n bytes to the mask-partner in each of the two phases.
            nbytes = 2.0 * ctx.out_bytes * mask / n / ctx.channels
            peer = order[v ^ mask]
            for channel in range(ctx.channels):
                transfers.append(
                    RankTransfer(dst_rank=peer, nbytes=nbytes, channel=channel)
                )
            mask >>= 1
        return transfers

    def steps(self, kind: Collective, world: int) -> int:
        if not self._applies(kind, world):
            return self._ring.steps(kind, world)
        return hd_steps(world)

    def plan(self, ctx):
        family = self.name if self._applies(ctx.kind, ctx.world) else "ring"
        return _position_plan(family, ctx)


_REGISTRY: Dict[str, CollectiveAlgorithm] = {}


def register_algorithm(algorithm: CollectiveAlgorithm, *, replace: bool = False) -> None:
    """Install a (possibly proprietary) algorithm under its name."""
    if algorithm.name in _REGISTRY and not replace:
        raise MccsError(f"algorithm {algorithm.name!r} already registered")
    _REGISTRY[algorithm.name] = algorithm


def unregister_algorithm(name: str) -> None:
    """Remove a registered algorithm (e.g. a retired synthesized program).

    The built-ins are load-bearing for every deployment and cannot be
    removed.
    """
    if name in _BUILTINS:
        raise MccsError(f"cannot unregister built-in algorithm {name!r}")
    if name not in _REGISTRY:
        raise MccsError(f"algorithm {name!r} is not registered")
    del _REGISTRY[name]


def get_algorithm(name: str) -> CollectiveAlgorithm:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise MccsError(
            f"unknown collective algorithm {name!r}; "
            f"registered: {sorted(_REGISTRY)}"
        ) from None


def registered_algorithms() -> List[str]:
    return sorted(_REGISTRY)


register_algorithm(RingAlgorithm())
register_algorithm(DoubleTreeAlgorithm())
register_algorithm(HalvingDoublingAlgorithm())

_BUILTINS = frozenset(_REGISTRY)
