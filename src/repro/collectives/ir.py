"""Chunk-level collective program IR.

This is the SCCL/GC3-style intermediate representation sitting between
the algorithm zoo and the flow data plane: a collective is expressed as
one instruction list per rank over *chunk ids* — contiguous slices of the
collective's working vector — using four primitive operations:

* ``SEND``        — ship a chunk to a peer over a channel;
* ``RECV``        — receive a chunk from a peer, overwriting the local slot;
* ``RECV_REDUCE`` — receive a chunk and combine it into the local slot
  with the collective's reduction operator;
* ``COPY``        — duplicate one local chunk slot into another.

Each instruction carries a ``step`` tag.  Steps serve two purposes: a
``SEND`` is matched to the unique ``RECV``/``RECV_REDUCE`` on its peer
with the same (chunk, channel, step) coordinates, and the program's step
count feeds the fixed-latency model exactly like the built-in
algorithms' pipeline-hop counts.  Dependencies are explicit in the
graph sense: program order within a rank, plus one edge from every send
to its matching receive.  The validator (:mod:`repro.synth.validate`)
checks the graph is acyclic and that chunk dataflow is correct for the
program's :class:`~repro.collectives.types.Collective` kind.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .chunking import chunk_bounds
from .types import Collective
from ..netsim.errors import MalformedProgramError


class OpKind(enum.Enum):
    SEND = "send"
    RECV = "recv"
    RECV_REDUCE = "recv_reduce"
    COPY = "copy"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Instr:
    """One instruction of one rank's program.

    Attributes:
        kind: The operation.
        chunk: The chunk id operated on (the *destination* slot for
            ``COPY``).
        peer: The remote rank for ``SEND``/``RECV``/``RECV_REDUCE``;
            must stay -1 for ``COPY``.
        channel: Connection channel the transfer rides (ignored by
            ``COPY``).
        step: Step tag; matches sends to receives and counts pipeline
            hops for the latency model.  Must be non-decreasing within a
            rank's program.
        src_chunk: Source slot for ``COPY``; -1 otherwise.
    """

    kind: OpKind
    chunk: int
    peer: int = -1
    channel: int = 0
    step: int = 0
    src_chunk: int = -1

    @property
    def is_transfer(self) -> bool:
        return self.kind is not OpKind.COPY


#: What one rank knows about one chunk slot: which original chunk's data
#: it holds and which ranks' contributions are folded into it.
ChunkValue = Tuple[int, FrozenSet[int]]


@dataclass(frozen=True)
class Program:
    """A complete chunk-level collective program.

    Attributes:
        name: Registry name; synthesized programs use ``synth:`` prefixes.
        kind: Collective kind the program implements.
        world: Number of participating ranks.
        num_chunks: How many contiguous chunks the working vector is
            split into.  For ``ALL_GATHER`` and ``REDUCE_SCATTER`` this
            must be a multiple of ``world`` so per-rank blocks are
            chunk-aligned.
        channels: Channels the program's transfers use (max channel + 1).
        rank_programs: ``rank_programs[r]`` is rank ``r``'s instruction
            tuple, executed in order.
        root: Root rank for rooted kinds (broadcast / reduce).
    """

    name: str
    kind: Collective
    world: int
    num_chunks: int
    channels: int
    rank_programs: Tuple[Tuple[Instr, ...], ...]
    root: int = 0
    #: Free-form generator parameters, for provenance and reports.
    meta: Tuple[Tuple[str, object], ...] = field(default=(), compare=False)

    # -- derived shape --------------------------------------------------
    @property
    def num_steps(self) -> int:
        """Pipeline step count (max step tag + 1; 0 for an empty program)."""
        steps = [
            instr.step
            for program in self.rank_programs
            for instr in program
        ]
        return max(steps) + 1 if steps else 0

    def chunk_nbytes(self, out_bytes: float) -> List[float]:
        """Bytes of each chunk for a collective of ``out_bytes``."""
        return chunk_nbytes(self.kind, self.world, self.num_chunks, out_bytes)

    # -- traffic views ---------------------------------------------------
    def sends_of(self, rank: int) -> List[Instr]:
        return [
            instr
            for instr in self.rank_programs[rank]
            if instr.kind is OpKind.SEND
        ]

    def pair_traffic(self, out_bytes: float) -> Dict[Tuple[int, int], float]:
        """Bytes per directed (src_rank, dst_rank) pair, all channels."""
        sizes = self.chunk_nbytes(out_bytes)
        traffic: Dict[Tuple[int, int], float] = {}
        for rank, program in enumerate(self.rank_programs):
            for instr in program:
                if instr.kind is OpKind.SEND:
                    pair = (rank, instr.peer)
                    traffic[pair] = traffic.get(pair, 0.0) + sizes[instr.chunk]
        return traffic


# ---------------------------------------------------------------------------
# pre/postconditions per collective kind
# ---------------------------------------------------------------------------
def block_of_chunk(chunk: int, num_chunks: int, world: int) -> int:
    """Owning rank block of ``chunk`` when chunks partition rank blocks."""
    per_block = num_chunks // world
    return chunk // per_block


def chunk_nbytes(
    kind: Collective, world: int, num_chunks: int, out_bytes: float
) -> List[float]:
    """Bytes of each chunk of a ``kind`` collective of ``out_bytes``.

    The working vector of a ``REDUCE_SCATTER`` is the full per-rank input
    (``world * out_bytes``); every other kind works in a vector of exactly
    ``out_bytes`` (the output-buffer convention of
    :func:`repro.collectives.types.input_bytes`)."""
    total = out_bytes * world if kind is Collective.REDUCE_SCATTER else float(out_bytes)
    # chunk_bounds needs integers; scale fractional byte counts by
    # distributing proportionally over the integer bounds.
    total_int = max(int(round(total)), num_chunks)
    bounds = chunk_spans(kind, total_int, num_chunks, world)
    scale = total / total_int if total_int else 0.0
    return [(hi - lo) * scale for lo, hi in bounds]


def chunk_spans(
    kind: Collective, total: int, num_chunks: int, world: int
) -> List[Tuple[int, int]]:
    """(lo, hi) extent of each chunk in a working vector of ``total`` units.

    For block-structured kinds (all-gather / reduce-scatter) the vector is
    first split into ``world`` rank blocks and each block into
    ``num_chunks / world`` chunks, so chunk boundaries never straddle a
    rank block even when ``total`` has a remainder.  Other kinds split the
    vector flat.
    """
    if kind in blocked_kinds() and num_chunks % world == 0:
        per_block = num_chunks // world
        spans: List[Tuple[int, int]] = []
        for lo, hi in chunk_bounds(total, world):
            spans.extend(
                (lo + clo, lo + chi)
                for clo, chi in chunk_bounds(hi - lo, per_block)
            )
        return spans
    return list(chunk_bounds(total, num_chunks))


def initial_state(
    kind: Collective, world: int, num_chunks: int, root: int
) -> List[Dict[int, ChunkValue]]:
    """Chunk slots each rank holds *before* the program runs.

    The state maps chunk id -> (origin chunk, contributor set): reducing
    kinds start with every rank holding its own version of every chunk
    (a singleton contributor set); gather-style kinds start with each
    rank holding only its own block; broadcast starts with only the root
    populated.
    """
    all_chunks = range(num_chunks)
    if kind in (Collective.ALL_REDUCE, Collective.REDUCE, Collective.REDUCE_SCATTER):
        return [
            {c: (c, frozenset((r,))) for c in all_chunks}
            for r in range(world)
        ]
    if kind is Collective.ALL_GATHER:
        return [
            {
                c: (c, frozenset((r,)))
                for c in all_chunks
                if block_of_chunk(c, num_chunks, world) == r
            }
            for r in range(world)
        ]
    if kind is Collective.BROADCAST:
        return [
            {c: (c, frozenset((root,))) for c in all_chunks}
            if r == root
            else {}
            for r in range(world)
        ]
    raise MalformedProgramError(f"unsupported collective {kind}")


def required_state(
    kind: Collective, world: int, num_chunks: int, root: int
) -> List[Dict[int, ChunkValue]]:
    """Chunk slots each rank must hold *after* the program runs.

    Slots absent from a rank's required map are unconstrained (e.g.
    non-root outputs of a rooted reduce, non-own blocks after a
    reduce-scatter).
    """
    everyone = frozenset(range(world))
    all_chunks = range(num_chunks)
    if kind is Collective.ALL_REDUCE:
        return [{c: (c, everyone) for c in all_chunks} for _ in range(world)]
    if kind is Collective.REDUCE:
        return [
            {c: (c, everyone) for c in all_chunks} if r == root else {}
            for r in range(world)
        ]
    if kind is Collective.REDUCE_SCATTER:
        return [
            {
                c: (c, everyone)
                for c in all_chunks
                if block_of_chunk(c, num_chunks, world) == r
            }
            for r in range(world)
        ]
    if kind is Collective.ALL_GATHER:
        return [
            {
                c: (c, frozenset((block_of_chunk(c, num_chunks, world),)))
                for c in all_chunks
            }
            for _ in range(world)
        ]
    if kind is Collective.BROADCAST:
        return [
            {c: (c, frozenset((root,))) for c in all_chunks}
            for _ in range(world)
        ]
    raise MalformedProgramError(f"unsupported collective {kind}")


def blocked_kinds() -> Tuple[Collective, ...]:
    """Kinds whose chunk count must be a multiple of the world size."""
    return (Collective.ALL_GATHER, Collective.REDUCE_SCATTER)


def make_program(
    name: str,
    kind: Collective,
    rank_programs: Sequence[Sequence[Instr]],
    *,
    num_chunks: int,
    channels: Optional[int] = None,
    root: int = 0,
    meta: Optional[Dict[str, object]] = None,
) -> Program:
    """Convenience constructor inferring the channel count."""
    programs = tuple(tuple(p) for p in rank_programs)
    if channels is None:
        used = [
            instr.channel
            for program in programs
            for instr in program
            if instr.is_transfer
        ]
        channels = max(used) + 1 if used else 1
    return Program(
        name=name,
        kind=kind,
        world=len(programs),
        num_chunks=num_chunks,
        channels=channels,
        rank_programs=programs,
        root=root,
        meta=tuple(sorted((meta or {}).items())),
    )
