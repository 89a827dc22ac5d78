"""The data plane: compile a chunk program once, run it in place.

Every algorithm — ring, double tree, halving-doubling, synthesized —
names a chunk-level :class:`~repro.collectives.ir.Program`; this module
is the only code that moves collective payload bytes.  It works in two
stages:

* :func:`compile_program` (once per program) matches sends to receives,
  fixes a dependency order, applies the hazard rule and coalesces
  adjacent chunks, leaving an :class:`ExecutionPlan`: a flat tuple of
  ``(reduce?, dst, target, src, chunk range)`` index records.  A plan
  holds no payload-sized array.
* :meth:`ExecutionPlan.run` (every collective) resolves chunk ranges to
  element slices through a small cache and issues one numpy call per
  record — ``ufunc(target, src, out=dst)`` or a slice assignment —
  reading straight from the sender's slot and writing straight into the
  caller's receive buffers, which double as the working vectors.  A
  slot that has not been written yet is read from the rank's *send*
  buffer, so no input is ever copied up front.

**Hazard rule.**  IR semantics are "a send ships the slot's value at the
send".  Reading the sender's slot at the *receive* is the same thing
only if nothing writes that slot in between; compilation tracks the
un-received sends of every (rank, chunk) and snapshots a slot only when
a write lands under one (a two-rank swap that ``recv_reduce``s the same
chunk both ways in one step).  The shipped generators compile to zero
snapshots.

**Relabelling.**  Built-in plans are compiled in ring-*position* space
(:func:`builtin_plan`, keyed on family/kind/world/root position) and
mapped onto ranks by the ``order`` argument of ``run``, so installing a
new ring order or channel count never recompiles anything.

**The schedule's other clock.**  A plan also keeps the two
size-independent facts simulated *time* needs — its pipeline step count
and, per sending position, who it sends to on which IR channel
(:attr:`ExecutionPlan.sends`) — so :mod:`repro.core.algorithms` derives
flows and fixed latency from the very program that moves the bytes.
"""

from __future__ import annotations

import heapq
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..netsim.errors import (
    DeadlockError,
    MalformedProgramError,
    UnmatchedTransferError,
)
from .generators import (
    double_tree_program,
    halving_doubling_program,
    ring_program,
)
from .ir import OpKind, Program, blocked_kinds, chunk_spans
from .types import Collective, ReduceOp

#: Identity of one instruction inside a program: (rank, index-in-program).
NodeId = Tuple[int, int]

_ROOTED = (Collective.BROADCAST, Collective.REDUCE)


# ---------------------------------------------------------------------------
# compile: matching, dependency order, hazards, coalescing
# ---------------------------------------------------------------------------
def schedule(program: Program) -> Tuple[List[NodeId], Dict[NodeId, NodeId]]:
    """Dependency-order the instructions; pair receives with their sends.

    Returns ``(order, send_of)`` where ``send_of`` maps each receive node
    to its matching send node.  Edges are program order within a rank
    plus send -> matching receive; among ready instructions the earliest
    step runs first, sends before receives, so a step's receives land
    together and adjacent chunks of one transfer stay adjacent.  Raises
    :class:`UnmatchedTransferError` on an unpaired or duplicated
    transfer and :class:`DeadlockError` on a cycle (such a program would
    wait forever on real hardware).
    """
    name = program.name
    progs = program.rank_programs
    # (src, dst, chunk, channel, step) -> node
    sends: Dict[Tuple[int, int, int, int, int], NodeId] = {}
    recvs: Dict[Tuple[int, int, int, int, int], NodeId] = {}
    for rank, instrs in enumerate(progs):
        for idx, instr in enumerate(instrs):
            if instr.kind is OpKind.COPY:
                continue
            if instr.kind is OpKind.SEND:
                key = (rank, instr.peer, instr.chunk, instr.channel, instr.step)
                table = sends
            else:
                key = (instr.peer, rank, instr.chunk, instr.channel, instr.step)
                table = recvs
            if key in table:
                raise UnmatchedTransferError(
                    f"{name}: duplicate {instr.kind} for chunk {key[2]} "
                    f"{key[0]}->{key[1]} channel {key[3]} step {key[4]}"
                )
            table[key] = (rank, idx)
    for what, ours, missing, theirs in (
        ("send", sends, "receive", recvs),
        ("receive", recvs, "send", sends),
    ):
        for key in ours:
            if key not in theirs:
                src, dst, chunk, channel, step = key
                raise UnmatchedTransferError(
                    f"{name}: {what} of chunk {chunk} {src}->{dst} "
                    f"channel {channel} step {step} has no matching {missing}"
                )
    send_of = {recvs[key]: node for key, node in sends.items()}

    order: List[NodeId] = []
    ready: List[Tuple[int, bool, int, int]] = []  # (step, receives?, rank, idx)
    sent = set()
    blocked: Dict[NodeId, NodeId] = {}  # un-run send -> receive waiting on it

    def offer(rank: int, idx: int) -> None:
        """Rank's next instruction: ready now, or parked on its send."""
        if idx == len(progs[rank]):
            return
        instr = progs[rank][idx]
        send = send_of.get((rank, idx))
        if send is not None and send not in sent:
            blocked[send] = (rank, idx)
        else:
            heapq.heappush(ready, (instr.step, instr.kind is not OpKind.SEND, rank, idx))

    for rank in range(len(progs)):
        offer(rank, 0)
    while ready:
        _, _, rank, idx = heapq.heappop(ready)
        order.append((rank, idx))
        if progs[rank][idx].kind is OpKind.SEND:
            sent.add((rank, idx))
            waiter = blocked.pop((rank, idx), None)
            if waiter is not None:
                offer(*waiter)
        offer(rank, idx + 1)
    total = sum(len(instrs) for instrs in progs)
    if len(order) != total:
        raise DeadlockError(
            f"{name}: dependency cycle; {total - len(order)} instructions "
            f"can never run (first stuck: {sorted(blocked.values())[:6]})"
        )
    return order, send_of


def toposort(program: Program) -> List[NodeId]:
    """The dependency order :func:`schedule` fixes (public shorthand)."""
    return schedule(program)[0]


class ExecutionPlan:
    """A compiled program: indices only, reusable for any buffer size.

    ``ops`` records are ``(reduce, dst, target, src, dlo, dhi, slo, shi)``
    over *array ids* — ``p`` is position ``p``'s working vector,
    ``world + p`` its send buffer, ``2 * world + k`` snapshot ``k`` — and
    half-open chunk ranges.  ``target`` is the first operand of a
    reduction: the send buffer while the slot is unwritten, else ``dst``.

    ``sends[p]`` is position ``p``'s *send table*: one ``(dst position,
    IR channel, chunk ids)`` entry per distinct (dst, channel) it sends
    to, entries and chunk ids in program order.  ``striped`` says how to
    read the channels: False, they name the connection channels
    themselves; True (:func:`builtin_plan`), the schedule is
    channel-agnostic and each IR channel is a lane the flow model stripes
    evenly over however many channels the strategy opens.
    """

    __slots__ = (
        "name", "kind", "world", "num_chunks", "root", "ops", "temp_owner",
        "steps", "sends", "striped",
    )

    def __init__(self, program: Program, ops: tuple, temp_owner: Tuple[int, ...]) -> None:
        self.name = program.name
        self.kind = program.kind
        self.world = program.world
        self.num_chunks = program.num_chunks
        self.root = program.root
        self.ops = ops
        #: Sending position of each snapshot the hazard rule forced.
        self.temp_owner = temp_owner
        #: Pipeline hops, for the fixed-latency model.
        self.steps = program.num_steps
        table = []
        for rank in range(program.world):
            by_edge: Dict[Tuple[int, int], List[int]] = {}
            for instr in program.sends_of(rank):
                by_edge.setdefault((instr.peer, instr.channel), []).append(instr.chunk)
            table.append(
                tuple((dst, channel, tuple(chunks)) for (dst, channel), chunks in by_edge.items())
            )
        self.sends = tuple(table)
        self.striped = False

    @property
    def snapshots(self) -> int:
        return len(self.temp_owner)

    def _blocks(self, order: Optional[Sequence[int]]) -> Optional[Tuple[int, ...]]:
        """Rank-block relabelling, needed only by the blocked kinds."""
        if order is None or self.kind not in blocked_kinds():
            return None
        return tuple(order)

    def edge_bytes(
        self, elems: int, itemsize: int, order: Optional[Sequence[int]] = None
    ) -> Dict[Tuple[int, int], int]:
        """Bytes per directed (src_rank, dst_rank) pair that one run over
        a working vector of ``elems`` elements moves between ranks."""
        n = self.world
        traffic: Dict[Tuple[int, int], int] = {}
        for _, dst, _, src, span, _ in _resolve(self, elems, self._blocks(order)):
            if dst >= 2 * n:
                continue  # a snapshot stays on the sending rank
            a = self.temp_owner[src - 2 * n] if src >= 2 * n else src % n
            if a != dst:
                pair = (a, dst) if order is None else (order[a], order[dst])
                traffic[pair] = traffic.get(pair, 0) + (span.stop - span.start) * itemsize
        return traffic

    def run(
        self,
        inputs: Sequence[np.ndarray],
        op: ReduceOp = ReduceOp.SUM,
        *,
        order: Optional[Sequence[int]] = None,
        out: Optional[Sequence[np.ndarray]] = None,
    ) -> List[np.ndarray]:
        """Execute on real buffers; returns the per-rank outputs.

        ``inputs[r]`` is rank ``r``'s send buffer (never written unless it
        *is* the receive buffer).  ``out[r]``, when given, is rank ``r``'s
        contiguous receive buffer and is written in place; otherwise
        outputs are allocated.  ``order[p]`` is the rank at position ``p``
        for plans compiled in position space.  Conventions are those of
        :mod:`repro.collectives.reference`.
        """
        n, kind = self.world, self.kind
        if len(inputs) != n:
            raise ValueError(f"{self.name}: need {n} input buffers, got {len(inputs)}")
        first = inputs[0]
        for arr in inputs[1:]:
            if arr.shape != first.shape or arr.dtype != first.dtype:
                raise ValueError("all rank buffers must match in shape and dtype")
        size = out_size = total = first.size
        if kind is Collective.ALL_GATHER:
            out_size = total = size * n
        elif kind is Collective.REDUCE_SCATTER:
            if size % n:
                raise ValueError(f"reduce-scatter input size {size} not divisible by {n}")
            out_size = size // n
        if out is None:
            shape = first.shape if out_size == size else (out_size,)
            out = [np.empty(shape, first.dtype) for _ in range(n)]
        elif len(out) != n or any(
            o.size != out_size or o.dtype != first.dtype or not o.flags.c_contiguous
            for o in out
        ):
            raise ValueError(
                f"{self.name}: need {n} contiguous {first.dtype} receive "
                f"buffers of {out_size} elements"
            )
        ranks = range(n) if order is None else order
        send = [inputs[r].reshape(-1) for r in ranks]
        recv = [out[r].reshape(-1) for r in ranks]
        work = recv
        if kind is Collective.REDUCE_SCATTER:
            # The only kind whose working vector outgrows its output.
            work = [np.empty(total, first.dtype) for _ in ranks]
        elif kind is Collective.REDUCE:
            # Non-roots keep their input: partial sums go to scratch.
            work = [
                w if p == self.root else np.empty(total, first.dtype)
                for p, w in enumerate(recv)
            ]
        elif kind is Collective.ALL_GATHER:
            for r, w, s in zip(ranks, recv, send):
                w[r * size : (r + 1) * size] = s
        elif kind is Collective.BROADCAST:
            np.copyto(recv[self.root], send[self.root])
        arrays = work + send + [np.empty(total, first.dtype) for _ in self.temp_owner]
        ufunc = op.ufunc
        for reduce, dst, target, src, dspan, sspan in _resolve(
            self, total, self._blocks(order)
        ):
            if reduce:
                ufunc(arrays[target][dspan], arrays[src][sspan], out=arrays[dst][dspan])
            else:
                arrays[dst][dspan] = arrays[src][sspan]
        if kind is Collective.REDUCE_SCATTER:
            for r, o, w in zip(ranks, recv, work):
                o[:] = w[r * out_size : (r + 1) * out_size]
        elif kind is Collective.REDUCE:
            for p, (o, s) in enumerate(zip(recv, send)):
                if p != self.root:
                    o[:] = s
        return list(out)


@lru_cache(maxsize=256)
def _resolve(plan: ExecutionPlan, total: int, blocks: Optional[Tuple[int, ...]]) -> tuple:
    """``plan.ops`` with chunk ranges turned into element slices of a
    ``total``-element working vector; empty transfers dropped."""
    spans = chunk_spans(plan.kind, total, plan.num_chunks, plan.world)
    if blocks is not None:
        # Position-space block b is the block of the rank sitting at b.
        per = plan.num_chunks // plan.world
        spans = [spans[blocks[c // per] * per + c % per] for c in range(len(spans))]
    resolved = []
    for reduce, dst, target, src, dlo, dhi, slo, shi in plan.ops:
        dspan = slice(spans[dlo][0], spans[dhi - 1][1])
        sspan = slice(spans[slo][0], spans[shi - 1][1])
        if dspan.stop - dspan.start != sspan.stop - sspan.start:
            raise MalformedProgramError(
                f"{plan.name}: copies chunk {slo} ({sspan.stop - sspan.start} "
                f"elems) into chunk {dlo} ({dspan.stop - dspan.start} elems)"
            )
        if dspan.stop > dspan.start:
            resolved.append((reduce, dst, target, src, dspan, sspan))
    return tuple(resolved)


def compile_program(program: Program) -> ExecutionPlan:
    """Compile ``program`` (assumed valid) into an :class:`ExecutionPlan`."""
    return compile_schedule(program, *schedule(program))


def compile_schedule(
    program: Program, order: List[NodeId], send_of: Dict[NodeId, NodeId]
) -> ExecutionPlan:
    """Compile ``program`` under the :func:`schedule` it already has (the
    validator's, so a checked program is ordered once)."""
    n = program.world
    per_block = program.num_chunks // n if program.kind in blocked_kinds() else 0
    # Slots whose value already sits in the working vector; every other
    # slot is read from the rank's send buffer until its first write.
    written = set()
    if program.kind is Collective.ALL_GATHER:
        written = {(c // per_block, c) for c in range(program.num_chunks)}
    elif program.kind is Collective.BROADCAST:
        written = {(program.root, c) for c in range(program.num_chunks)}
    ops: List[Optional[tuple]] = []
    #: un-received send -> (its placeholder in ops, array holding the value)
    pending: Dict[NodeId, Tuple[int, int]] = {}
    outstanding: Dict[Tuple[int, int], List[NodeId]] = {}
    temp_owner: List[int] = []

    def holder(rank: int, chunk: int) -> int:
        return rank if (rank, chunk) in written else n + rank

    for node in order:
        rank, idx = node
        instr = program.rank_programs[rank][idx]
        chunk = instr.chunk
        if instr.kind is OpKind.SEND:
            pending[node] = (len(ops), holder(rank, chunk))
            outstanding.setdefault((rank, chunk), []).append(node)
            ops.append(None)
            continue
        if instr.kind is OpKind.COPY:
            src_chunk, src = instr.src_chunk, holder(rank, instr.src_chunk)
        else:
            send = send_of[node]
            src_chunk, src = chunk, pending.pop(send)[1]
            if src < 2 * n:
                outstanding[(instr.peer, chunk)].remove(send)
        # Hazard rule: this write lands under un-received sends of the
        # same slot, so each of them ships a snapshot taken at the send.
        for send in outstanding.pop((rank, chunk), ()):
            at, arr = pending[send]
            temp = 2 * n + len(temp_owner)
            temp_owner.append(rank)
            ops[at] = (False, temp, temp, arr, chunk, chunk + 1, chunk, chunk + 1)
            pending[send] = (at, temp)
        ops.append(
            (instr.kind is OpKind.RECV_REDUCE, rank, holder(rank, chunk), src,
             chunk, chunk + 1, src_chunk, src_chunk + 1)
        )
        written.add((rank, chunk))

    merged: List[tuple] = []
    for record in filter(None, ops):
        _, _, _, _, dlo, dhi, slo, shi = record
        last = merged[-1] if merged else None
        if (
            last is not None
            and last[:4] == record[:4]  # the same transfer ...
            and last[4:6] == last[6:8]  # ... of one chunk range, not a local copy ...
            and last[5] == dlo == slo  # ... continued by the next chunk ...
            and (not per_block or last[4] // per_block == dlo // per_block)
        ):  # ... of the same rank block: one numpy call moves both
            merged[-1] = last[:5] + (dhi, last[6], shi)
        else:
            merged.append(record)
    return ExecutionPlan(program, tuple(merged), tuple(temp_owner))


def run_program(
    program: Program,
    inputs: Sequence[np.ndarray],
    op: ReduceOp = ReduceOp.SUM,
    *,
    out: Optional[Sequence[np.ndarray]] = None,
) -> List[np.ndarray]:
    """Compile and run in one go (exploration and tests; services keep
    the plan)."""
    return compile_program(program).run(inputs, op, out=out)


# ---------------------------------------------------------------------------
# built-in families, compiled in position space
# ---------------------------------------------------------------------------
@lru_cache(maxsize=512)
def _builtin_plan(family: str, kind: Collective, world: int, root_pos: int) -> ExecutionPlan:
    if family == "ring":
        program = ring_program(kind, world, root=root_pos)
    elif family == "tree":
        # One lane per tree: the two trees share directed rank pairs,
        # and each tree's traffic must stay a flow of its own.
        program = double_tree_program(world, channels=2)
    elif family == "halving_doubling":
        program = halving_doubling_program(world)
    else:
        raise ValueError(f"unknown built-in program family {family!r}")
    if program.kind is not kind:
        raise ValueError(f"{family} has no {kind} program")
    plan = compile_program(program)
    plan.striped = True
    return plan


def builtin_plan(
    family: str, kind: Collective, world: int, root_pos: int = 0
) -> ExecutionPlan:
    """The compiled plan of a built-in family, in ring-position space.

    Position ``p`` of the plan is whichever rank the caller's ring order
    puts there (``run(..., order=ring_order)``); the cache key therefore
    never contains a ring order, and a reconfigured ring reuses the plan.
    Nor does it contain the strategy's channel count: the executor
    ignores channel tags and the flow model stripes a built-in schedule
    evenly over the channels itself.
    """
    if kind not in _ROOTED:
        root_pos = 0
    return _builtin_plan(family, kind, world, root_pos)
