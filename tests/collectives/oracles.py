"""Closed-form oracles for the schedule views.

Until ISSUE 19 these were product code: the fluid model's traffic and
step counts were written out by hand, once per consumer, next to the
chunk programs that move the bytes.  The product now derives flows,
step counts and cost-model traffic from the compiled plan
(``ExecutionPlan.sends`` / ``.steps`` through
``CollectiveAlgorithm.rank_transfers`` / ``.steps``); the closed forms
live on here, **verbatim**, as the reference implementations those views
are proved against (``test_schedule_views.py``).

Three groups:

* the seven closed-form functions moved out of ``collectives/ring.py``,
  ``tree.py`` and ``halving_doubling.py`` (bodies untouched);
* the parent's per-family ``rank_transfers`` / ``steps`` bodies from
  ``core/algorithms.py`` and ``synth/lowering.py`` (methods turned into
  functions, ``self._ring.x`` into the ring oracle, otherwise untouched);
* ``compile_ring`` from ``FlowTransport.launch_ring``.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.collectives.halving_doubling import is_power_of_two
from repro.collectives.ring import RingSchedule
from repro.collectives.tree import TreeSchedule, double_binary_trees
from repro.collectives.types import Collective, validate_world
from repro.core.algorithms import AlgorithmContext, RankTransfer


# ---------------------------------------------------------------------------
# collectives/ring.py: traffic model
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


# ---------------------------------------------------------------------------
# collectives/tree.py: traffic model
# ---------------------------------------------------------------------------
def tree_allreduce_traffic(
    tree: TreeSchedule, out_bytes: int
) -> Dict[Tuple[int, int], float]:
    """Bytes per directed (src, dst) rank pair for reduce+broadcast.

    Every tree edge carries the full vector once up (reduce) and once down
    (broadcast).
    """
    traffic: Dict[Tuple[int, int], float] = {}
    for child, parent in tree.edges():
        traffic[(child, parent)] = traffic.get((child, parent), 0.0) + out_bytes
        traffic[(parent, child)] = traffic.get((parent, child), 0.0) + out_bytes
    return traffic


def double_tree_allreduce_traffic(
    trees: Tuple[TreeSchedule, TreeSchedule], out_bytes: int
) -> Dict[Tuple[int, int], float]:
    """Each of the two trees carries half of the vector."""
    traffic: Dict[Tuple[int, int], float] = {}
    for tree in trees:
        for (pair, nbytes) in tree_allreduce_traffic(tree, out_bytes / 2).items():
            traffic[pair] = traffic.get(pair, 0.0) + nbytes
    return traffic


def tree_steps(tree: TreeSchedule) -> int:
    """Latency hops: up the tree then down."""
    return 2 * tree.depth()


# ---------------------------------------------------------------------------
# collectives/halving_doubling.py: traffic model
# ---------------------------------------------------------------------------
def hd_steps(world: int) -> int:
    """Latency hops of halving-doubling AllReduce: 2*log2(n)."""
    validate_world(world)
    if not is_power_of_two(world):
        raise ValueError(f"halving-doubling needs a power-of-two world, got {world}")
    return 2 * (world.bit_length() - 1)


def halving_doubling_traffic(
    order: Sequence[int], out_bytes: float
) -> Dict[Tuple[int, int], float]:
    """Bytes per directed (src, dst) rank pair for one AllReduce.

    At the step with partner mask ``m`` each rank exchanges ``S*m/n``
    bytes with the rank whose *position* differs by ``m``; every pair
    appears once in the halving phase and once in the doubling phase.
    """
    order = list(order)
    n = len(order)
    validate_world(n)
    if not is_power_of_two(n):
        raise ValueError(f"halving-doubling needs a power-of-two world, got {n}")
    traffic: Dict[Tuple[int, int], float] = {}
    mask = n >> 1
    while mask:
        nbytes = 2.0 * out_bytes * mask / n  # once per phase
        for v in range(n):
            pair = (order[v], order[v ^ mask])
            traffic[pair] = traffic.get(pair, 0.0) + nbytes
        mask >>= 1
    return traffic


# ---------------------------------------------------------------------------
# core/algorithms.py: the parent's rank_transfers / steps, per family
# ---------------------------------------------------------------------------
def ring_rank_transfers(ctx: AlgorithmContext) -> List[RankTransfer]:
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


def tree_rank_transfers(ctx: AlgorithmContext) -> List[RankTransfer]:
    if ctx.kind is not Collective.ALL_REDUCE:
        return ring_rank_transfers(ctx)
    transfers: List[RankTransfer] = []
    half = ctx.out_bytes / 2.0
    per_channel = half / ctx.channels
    for tree in double_binary_trees(list(ctx.ring_order)):
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


def tree_algorithm_steps(kind: Collective, world: int) -> int:
    if kind is not Collective.ALL_REDUCE:
        return steps_for(kind, world)
    trees = double_binary_trees(range(world))
    return max(tree_steps(t) for t in trees)


def _hd_applies(ctx_kind: Collective, world: int) -> bool:
    return ctx_kind is Collective.ALL_REDUCE and is_power_of_two(world)


def hd_rank_transfers(ctx: AlgorithmContext) -> List[RankTransfer]:
    if not _hd_applies(ctx.kind, ctx.world):
        return ring_rank_transfers(ctx)
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


def hd_algorithm_steps(kind: Collective, world: int) -> int:
    if not _hd_applies(kind, world):
        return steps_for(kind, world)
    return hd_steps(world)


#: Built-in algorithm name -> (rank_transfers(ctx), steps(kind, world)).
BUILTIN_ORACLES = {
    "ring": (ring_rank_transfers, steps_for),
    "tree": (tree_rank_transfers, tree_algorithm_steps),
    "halving_doubling": (hd_rank_transfers, hd_algorithm_steps),
}


# ---------------------------------------------------------------------------
# synth/lowering.py + Program.rank_transfer_bytes: the as-tagged rule
# ---------------------------------------------------------------------------
def rank_transfer_bytes(
    program, rank: int, out_bytes: float
) -> Dict[Tuple[int, int], float]:
    """Aggregate outgoing bytes of ``rank`` per (dst_rank, channel)."""
    sizes = program.chunk_nbytes(out_bytes)
    out: Dict[Tuple[int, int], float] = {}
    for instr in program.sends_of(rank):
        key = (instr.peer, instr.channel)
        out[key] = out.get(key, 0.0) + sizes[instr.chunk]
    return out


def synth_rank_transfers(program, ctx: AlgorithmContext) -> List[RankTransfer]:
    """``SynthAlgorithm.rank_transfers`` where the program applies."""
    by_edge = rank_transfer_bytes(program, ctx.rank, ctx.out_bytes)
    return [
        RankTransfer(dst_rank=dst, nbytes=nbytes, channel=channel)
        for (dst, channel), nbytes in sorted(by_edge.items())
        if nbytes > 0
    ]


# ---------------------------------------------------------------------------
# transport/launcher.py: launch_ring's private compiler
# ---------------------------------------------------------------------------
def compile_ring(
    kind: Collective,
    out_bytes: int,
    schedule: RingSchedule,
    channels: int,
    root: int = 0,
) -> Tuple[Tuple[int, int, int, float], ...]:
    """(src_rank, dst_rank, channel, nbytes) per flow, channel-major."""
    world = schedule.world
    root_position = schedule.position_of(root)
    per_channel = out_bytes / channels
    per_edge = edge_traffic(kind, per_channel, world, root_position)
    return tuple(
        (schedule.order[pos], schedule.order[(pos + 1) % world], channel, nbytes)
        for channel in range(channels)
        for pos, nbytes in enumerate(per_edge)
        if nbytes > 0
    )
