"""Pluggable collective algorithms for the MCCS proxy engines.

§4.2: the proxy engine "enables the incorporation of various collective
strategies optimized for specific topologies, such as those proposed in
recent research [MSCCL/TACCL/...] or even proprietary strategies developed
in-house by the provider".

This module is that extension point, and an *algorithm* is the name of a
chunk program: :meth:`CollectiveAlgorithm.plan` is the only method a
family writes.  Everything else is a view of the compiled plan — the
bytes (:meth:`~CollectiveAlgorithm.run_data`, through the one executor in
:mod:`repro.collectives.executor`), the flows each rank launches
(:meth:`~CollectiveAlgorithm.rank_transfers`) and the pipeline step
count of the fixed-latency model (:meth:`~CollectiveAlgorithm.steps`) —
so the two clocks cannot describe different schedules.  The registry
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

A family that has no program for a (kind, world, root) says so once, in
its ``plan``, by returning the ring's; flows and steps inherit that.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..collectives.executor import ExecutionPlan, Staging, builtin_plan
from ..collectives.halving_doubling import is_power_of_two
from ..collectives.ir import Program, chunk_nbytes
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
    """Interface implemented by every pluggable algorithm: :meth:`plan`.

    ``program`` and ``fingerprint`` are set by a synthesized algorithm
    (:class:`repro.synth.SynthAlgorithm`): the one IR program it runs and
    the topology fingerprint it was searched for.
    """

    name = "abstract"
    program: Optional[Program] = None
    fingerprint: Optional[str] = None

    def plan(
        self, ctx: AlgorithmContext
    ) -> Tuple[ExecutionPlan, Optional[Sequence[int]]]:
        """The compiled chunk program that moves this collective's bytes,
        and the position -> rank order to run it under (``None`` when
        the plan is already in rank space)."""
        raise NotImplementedError

    def steps(self, ctx: AlgorithmContext) -> int:
        """Pipeline hops of the plan, for the fixed-latency model."""
        return self.plan(ctx)[0].steps

    def rank_transfers(self, ctx: AlgorithmContext) -> List[RankTransfer]:
        """Outgoing transfers of ``ctx.rank`` (one flow each), read off
        the plan's send table by one of two rules.

        *As tagged* (synthesized and provider-written programs): one flow
        per (peer, IR channel), carrying the bytes of the chunks sent.

        *Striped* (the built-in plans): one flow per (peer, lane) and
        strategy channel, each an even share — the fluid model fig06-fig11
        are validated with.  Ring and halving-doubling have one lane, the
        double tree one per tree: the trees share directed rank pairs,
        and each tree's traffic stays a flow of its own.
        """
        plan, order = self.plan(ctx)
        ranks = range(plan.world) if order is None else order
        sends = plan.sends[ranks.index(ctx.rank)]
        if plan.striped:
            # Chunks per output buffer; a ReduceScatter's is one rank block.
            out_chunks = plan.num_chunks
            if plan.kind is Collective.REDUCE_SCATTER:
                out_chunks //= plan.world
            stripe = ctx.out_bytes / ctx.channels
            return [
                RankTransfer(ranks[dst], len(chunks) / out_chunks * stripe, channel)
                for dst, _, chunks in sends
                for channel in range(ctx.channels)
            ]
        sizes = chunk_nbytes(plan.kind, plan.world, plan.num_chunks, ctx.out_bytes)
        transfers = sorted(
            (ranks[dst], channel, sum(sizes[c] for c in chunks))
            for dst, channel, chunks in sends
        )
        return [
            RankTransfer(dst, nbytes, channel)
            for dst, channel, nbytes in transfers
            if nbytes > 0
        ]

    def transfers(self, ctx: AlgorithmContext) -> Iterator[Tuple[int, RankTransfer]]:
        """``(src_rank, transfer)`` for every rank of the collective, in
        ring-position order (``ctx.rank`` is ignored)."""
        for rank in ctx.ring_order:
            for transfer in self.rank_transfers(replace(ctx, rank=rank)):
                yield rank, transfer

    def run_data(
        self,
        ctx: AlgorithmContext,
        inputs: Sequence[np.ndarray],
        op: ReduceOp,
        out: Optional[Sequence[np.ndarray]] = None,
        staging: Optional[Staging] = None,
    ) -> List[np.ndarray]:
        """Execute the collective on real buffers, writing ``out`` (the
        tenant's receive buffers) in place when given and taking scratch
        from ``staging`` (the deployment's, on the service path)."""
        plan, order = self.plan(ctx)
        return plan.run(inputs, op, order=order, out=out, staging=staging)


# The built-in families: plans compiled once in ring-position space
# (:func:`builtin_plan`) and relabelled through the strategy's ring order.


class RingAlgorithm(CollectiveAlgorithm):
    """The default: NCCL-style rings for every collective kind."""

    name = "ring"

    def plan(self, ctx):
        order = ctx.ring_order
        return builtin_plan("ring", ctx.kind, ctx.world, order.index(ctx.root)), order


class DoubleTreeAlgorithm(CollectiveAlgorithm):
    """Double binary trees for AllReduce; other kinds fall back to rings.

    The trees are derived from the strategy's ring order, so a locality-
    optimized order also produces locality-friendly trees.
    """

    name = "tree"

    def plan(self, ctx):
        family = "tree" if ctx.kind is Collective.ALL_REDUCE else "ring"
        order = ctx.ring_order
        return builtin_plan(family, ctx.kind, ctx.world, order.index(ctx.root)), order


class HalvingDoublingAlgorithm(CollectiveAlgorithm):
    """Recursive halving-doubling AllReduce (butterfly exchange).

    Applies only to AllReduce on power-of-two worlds; everything else
    falls back to rings, mirroring :class:`DoubleTreeAlgorithm`.  The
    strategy's ring order assigns ranks to butterfly positions, so a
    locality order keeps the small-mask (frequent, small-payload)
    exchanges on nearby ranks.
    """

    name = "halving_doubling"

    def plan(self, ctx):
        applies = ctx.kind is Collective.ALL_REDUCE and is_power_of_two(ctx.world)
        family = self.name if applies else "ring"
        order = ctx.ring_order
        return builtin_plan(family, ctx.kind, ctx.world, order.index(ctx.root)), order


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
