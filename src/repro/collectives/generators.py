"""Program generators: parametric families of chunk-level schedules.

Every algorithm family is a generator here, and the one executor
(:mod:`repro.collectives.executor`) runs whatever they emit:

* :func:`ring_program` — the classic chunked ring schedules for all five
  collective kinds (NCCL's rings, §5), also the flat baseline the
  synthesizer's search compares against.
* :func:`double_tree_program` — NCCL-style double-binary-tree AllReduce:
  each half of the vector is reduced up and broadcast down its own tree.
* :func:`halving_doubling_program` — the butterfly AllReduce: recursive
  halving ReduceScatter, recursive doubling AllGather.
* :func:`hierarchical_allreduce_program` — the SCCL-style two-level
  schedule for hierarchical fabrics: intra-group reduce-scatter, an
  inter-group ring all-reduce of each member's shard (the only phase
  that crosses group boundaries — e.g. WAN links), and an intra-group
  all-gather.  With ``g`` groups of ``m`` ranks it finishes in
  ``2m + 2g - 4`` steps and moves ~``S`` bytes per directed WAN link
  versus ~``2S`` for a flat locality ring — which is exactly the win the
  cost model and the netsim agree on for multi-region fabrics.

Generators only *construct* programs; :func:`repro.synth.validate_program`
proves them (the synthesizer always does, the test suite does for the
built-in families).  ``order`` maps schedule positions to ranks; the
executor compiles the built-ins once with the identity order and
relabels at run time.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..netsim.errors import MalformedProgramError
from .halving_doubling import is_power_of_two
from .ir import Instr, OpKind, Program, make_program
from .tree import double_binary_trees
from .types import Collective, validate_world


def _channel_of(chunk: int, channels: int) -> int:
    return chunk % channels


def _transfer(
    sends: List[List[Instr]],
    src: int,
    dst: int,
    chunk: int,
    step: int,
    channels: int,
    *,
    reduce: bool,
) -> None:
    """Emit one matched send/receive pair into the per-rank programs."""
    channel = _channel_of(chunk, channels)
    sends[src].append(
        Instr(OpKind.SEND, chunk, peer=dst, channel=channel, step=step)
    )
    kind = OpKind.RECV_REDUCE if reduce else OpKind.RECV
    sends[dst].append(
        Instr(kind, chunk, peer=src, channel=channel, step=step)
    )


def _sort_rank_programs(programs: List[List[Instr]]) -> List[List[Instr]]:
    """Stable-sort each rank's program by step, sends before receives.

    Within a step a rank's send never waits on that step's receive (ring
    steps are simultaneous shifts), so ordering sends first keeps the
    dependency graph acyclic.
    """
    order = {OpKind.SEND: 0, OpKind.COPY: 1, OpKind.RECV: 2, OpKind.RECV_REDUCE: 2}
    return [
        sorted(p, key=lambda i: (i.step, order[i.kind]))
        for p in programs
    ]


def _positions(world: int, order: Optional[Sequence[int]]) -> List[int]:
    """``order`` (default identity) checked to be a permutation of ranks."""
    validate_world(world)
    ring = list(order) if order is not None else list(range(world))
    if sorted(ring) != list(range(world)):
        raise MalformedProgramError(
            f"order {ring} is not a permutation of 0..{world - 1}"
        )
    return ring


# ---------------------------------------------------------------------------
# flat ring programs
# ---------------------------------------------------------------------------
def ring_program(
    kind: Collective,
    world: int,
    *,
    order: Optional[Sequence[int]] = None,
    channels: int = 1,
    root: int = 0,
    name: Optional[str] = None,
) -> Program:
    """The chunked ring schedule for ``kind``, as an IR program.

    All-reduce is reduce-scatter + all-gather over ``world`` chunks,
    all-gather/reduce-scatter rotate rank blocks, broadcast and reduce
    are pipelined whole-buffer chains.
    """
    ring = _positions(world, order)
    n = world
    programs: List[List[Instr]] = [[] for _ in range(n)]
    label = name or f"synth:ring/{kind.value}/w{world}"

    if kind is Collective.ALL_REDUCE:
        num_chunks = n
        for s in range(n - 1):  # reduce-scatter phase
            for p in range(n):
                _transfer(
                    programs,
                    ring[p],
                    ring[(p + 1) % n],
                    (p - s) % n,
                    s,
                    channels,
                    reduce=True,
                )
        for s in range(n - 1):  # all-gather phase
            for p in range(n):
                _transfer(
                    programs,
                    ring[p],
                    ring[(p + 1) % n],
                    (p + 1 - s) % n,
                    (n - 1) + s,
                    channels,
                    reduce=False,
                )
    elif kind is Collective.ALL_GATHER:
        # Chunk c is rank c's block; position p forwards the block that
        # originated (p - s) positions back.
        num_chunks = n
        for s in range(n - 1):
            for p in range(n):
                _transfer(
                    programs,
                    ring[p],
                    ring[(p + 1) % n],
                    ring[(p - s) % n],
                    s,
                    channels,
                    reduce=False,
                )
    elif kind is Collective.REDUCE_SCATTER:
        # Shifted schedule: position p sends ring-chunk (p - s - 1); after
        # n-1 steps position p holds its own rank's block fully reduced.
        num_chunks = n
        for s in range(n - 1):
            for p in range(n):
                _transfer(
                    programs,
                    ring[p],
                    ring[(p + 1) % n],
                    ring[(p - s - 1) % n],
                    s,
                    channels,
                    reduce=True,
                )
    elif kind in (Collective.BROADCAST, Collective.REDUCE):
        num_chunks = 1
        root_pos = ring.index(root)
        if kind is Collective.BROADCAST:
            p = root_pos
            for s in range(n - 1):
                _transfer(
                    programs,
                    ring[p],
                    ring[(p + 1) % n],
                    0,
                    s,
                    channels,
                    reduce=False,
                )
                p = (p + 1) % n
        else:
            p = (root_pos + 1) % n
            for s in range(n - 1):
                _transfer(
                    programs,
                    ring[p],
                    ring[(p + 1) % n],
                    0,
                    s,
                    channels,
                    reduce=True,
                )
                p = (p + 1) % n
    else:
        raise MalformedProgramError(f"unsupported collective {kind}")

    return make_program(
        label,
        kind,
        _sort_rank_programs(programs),
        num_chunks=num_chunks,
        channels=channels,
        root=root,
        meta={"family": "ring", "order": tuple(ring)},
    )


# ---------------------------------------------------------------------------
# double binary tree and halving-doubling all-reduce
# ---------------------------------------------------------------------------
def double_tree_program(
    world: int,
    *,
    order: Optional[Sequence[int]] = None,
    channels: int = 1,
    name: Optional[str] = None,
) -> Program:
    """Double-binary-tree all-reduce over two chunks (vector halves).

    Chunk ``t`` rides tree ``t`` of :func:`double_binary_trees`: a node
    at depth ``d`` of a depth-``D`` tree folds its children in (in
    ``children()`` order) and sends up at step ``D - d``; the total
    comes back down at steps ``D + d``, ``2 * D`` steps in all.
    """
    ring = _positions(world, order)
    programs: List[List[Instr]] = [[] for _ in range(world)]
    for chunk, tree in enumerate(double_binary_trees(ring)):
        depth = {tree.root: 0}
        frontier = [tree.root]
        for parent in frontier:  # breadth first, so parents come first
            for child in tree.children(parent):
                depth[child] = depth[parent] + 1
                frontier.append(child)
        deepest = max(depth.values())
        for parent in frontier:
            for child in tree.children(parent):
                _transfer(programs, child, parent, chunk,
                          deepest - depth[child], channels, reduce=True)
                _transfer(programs, parent, child, chunk,
                          deepest + depth[parent], channels, reduce=False)
    return make_program(
        name or f"tree/{Collective.ALL_REDUCE.value}/w{world}",
        Collective.ALL_REDUCE,
        _sort_rank_programs(programs),
        num_chunks=2,
        channels=channels,
        meta={"family": "tree", "order": tuple(ring)},
    )


def halving_doubling_program(
    world: int,
    *,
    order: Optional[Sequence[int]] = None,
    channels: int = 1,
    name: Optional[str] = None,
) -> Program:
    """Recursive halving-doubling (butterfly) all-reduce, ``world`` chunks.

    ``order`` assigns ranks to butterfly positions.  At the halving step
    with partner mask ``m`` position ``v`` keeps one half of its current
    chunk range and sends the other to ``v ^ m``; the doubling phase
    replays the masks upward, each side sending all it holds.
    """
    ring = _positions(world, order)
    n = world
    if not is_power_of_two(n):
        raise MalformedProgramError(
            f"halving-doubling needs a power-of-two world, got {n}"
        )
    programs: List[List[Instr]] = [[] for _ in range(n)]
    ranges = [(0, n)] * n  # chunk range each position is reducing
    step = 0
    mask = n >> 1
    while mask:
        nxt = list(ranges)
        for v in range(n):
            lo, hi = ranges[v]
            mid = (lo + hi) // 2
            keep, send = ((mid, hi), (lo, mid)) if v & mask else ((lo, mid), (mid, hi))
            for chunk in range(*send):
                _transfer(programs, ring[v], ring[v ^ mask], chunk, step,
                          channels, reduce=True)
            nxt[v] = keep
        ranges = nxt
        mask >>= 1
        step += 1
    mask = 1
    while mask < n:
        nxt = list(ranges)
        for v in range(n):
            for chunk in range(*ranges[v]):
                _transfer(programs, ring[v], ring[v ^ mask], chunk, step,
                          channels, reduce=False)
            (lo, hi), (plo, phi) = ranges[v], ranges[v ^ mask]
            nxt[v] = (min(lo, plo), max(hi, phi))
        ranges = nxt
        mask <<= 1
        step += 1
    return make_program(
        name or f"halving_doubling/{Collective.ALL_REDUCE.value}/w{world}",
        Collective.ALL_REDUCE,
        _sort_rank_programs(programs),
        num_chunks=n,
        channels=channels,
        meta={"family": "halving_doubling", "order": tuple(ring)},
    )


# ---------------------------------------------------------------------------
# hierarchical two-level all-reduce
# ---------------------------------------------------------------------------
def hierarchical_allreduce_program(
    groups: Sequence[Sequence[int]],
    *,
    channels: int = 1,
    name: Optional[str] = None,
) -> Program:
    """Two-level all-reduce over equally sized rank groups.

    ``groups[j]`` lists the ranks of group ``j`` (a host, a rack or a
    region); only phase 2 crosses group boundaries.  The working vector
    is split into ``m * g`` chunks (``m`` ranks per group, ``g``
    groups); member ``i`` of each group owns *super-chunk* ``i`` (the
    ``g`` consecutive chunks ``[i*g, (i+1)*g)``):

    1. intra-group ring reduce-scatter over super-chunks (``m - 1``
       steps) — member ``i`` ends holding super-chunk ``i`` reduced
       over its group;
    2. inter-group ring all-reduce of super-chunk ``i`` among the
       ``i``-th members of every group (``2(g - 1)`` steps, the only
       WAN-crossing phase);
    3. intra-group ring all-gather of super-chunks (``m - 1`` steps).
    """
    groups = [list(g) for g in groups]
    g = len(groups)
    if g < 1:
        raise MalformedProgramError("need at least one group")
    m = len(groups[0])
    if any(len(grp) != m for grp in groups):
        raise MalformedProgramError(
            f"groups must be equally sized, got {[len(grp) for grp in groups]}"
        )
    ranks = sorted(r for grp in groups for r in grp)
    world = g * m
    if ranks != list(range(world)):
        raise MalformedProgramError(
            f"groups must partition 0..{world - 1}, got {ranks}"
        )
    validate_world(world)

    num_chunks = world  # m super-chunks of g sub-chunks each
    programs: List[List[Instr]] = [[] for _ in range(world)]

    def super_chunks(i: int) -> range:
        return range(i * g, (i + 1) * g)

    step = 0
    # Phase 1: intra-group reduce-scatter over super-chunks.
    for s in range(m - 1):
        for grp in groups:
            for p in range(m):
                i = (p - s - 1) % m
                for chunk in super_chunks(i):
                    _transfer(
                        programs,
                        grp[p],
                        grp[(p + 1) % m],
                        chunk,
                        step + s,
                        channels,
                        reduce=True,
                    )
    step += m - 1

    # Phase 2: inter-group all-reduce of super-chunk i among the i-th
    # members.  Sub-chunk t of super-chunk i is chunk i*g + t.
    if g > 1:
        for i in range(m):
            members = [groups[j][i] for j in range(g)]
            for s in range(g - 1):  # reduce-scatter among groups
                for j in range(g):
                    _transfer(
                        programs,
                        members[j],
                        members[(j + 1) % g],
                        i * g + (j - s) % g,
                        step + s,
                        channels,
                        reduce=True,
                    )
            for s in range(g - 1):  # all-gather among groups
                for j in range(g):
                    _transfer(
                        programs,
                        members[j],
                        members[(j + 1) % g],
                        i * g + (j + 1 - s) % g,
                        step + (g - 1) + s,
                        channels,
                        reduce=False,
                    )
        step += 2 * (g - 1)

    # Phase 3: intra-group all-gather of super-chunks.
    for s in range(m - 1):
        for grp in groups:
            for p in range(m):
                i = (p - s) % m
                for chunk in super_chunks(i):
                    _transfer(
                        programs,
                        grp[p],
                        grp[(p + 1) % m],
                        chunk,
                        step + s,
                        channels,
                        reduce=False,
                    )

    label = name or f"synth:hier/{Collective.ALL_REDUCE.value}/g{g}m{m}"
    return make_program(
        label,
        Collective.ALL_REDUCE,
        _sort_rank_programs(programs),
        num_chunks=num_chunks,
        channels=channels,
        meta={
            "family": "hierarchical",
            "groups": tuple(tuple(grp) for grp in groups),
        },
    )
