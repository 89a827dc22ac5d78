"""The data plane: compile a chunk program once, run it in place.

Every algorithm — ring, double tree, halving-doubling, synthesized —
names a chunk-level :class:`~repro.collectives.ir.Program`; this module
is the only code that moves collective payload bytes.  It works in two
stages:

* :func:`compile_program` (once per program) matches sends to receives,
  fixes a dependency order, applies the hazard rule, gives scratch
  values their pool slots and coalesces adjacent chunks, leaving an
  :class:`ExecutionPlan`: a flat tuple of ``(reduce?, dst, target, src,
  chunk range)`` index records and a slot count.  A plan holds no
  payload-sized array.
* :meth:`ExecutionPlan.bind` (every new set of buffers) resolves chunk
  ranges and pool slots to element slices — in cache-blocked order,
  below — through a small cache, and :meth:`BoundRun.apply` (every
  collective) issues one numpy call per resolved record —
  ``ufunc(target, src, out=dst)`` or a copy — in one loop for every kind,
  reading straight from the sender's slot.  A slot that has not been
  written yet is read from the rank's *send* buffer, so no input is ever
  copied up front.

**Binding.**  A run's numpy calls depend only on the plan, the ring
order, the reduce op and the arrays, so :meth:`ExecutionPlan.bind`
turns them into a :class:`BoundRun` that can be applied again and again:
per lane, a list of ``(reduce?, target view, src view, dst view)``
calls, plus the kind's prologue copies (the all-gather self-block, the
broadcast root copy) and epilogue copies (the reduce non-roots).  The
first :meth:`~BoundRun.apply` resolves the calls in one pass that only
slices, then applies them; every later apply replays the calls without
slicing anything.  That tight pass costs about what slicing inside the
apply loop costs (handing each call out of a generator as it was built
cost several times more), so a run bound and applied once costs what an
unbound run did, and :meth:`ExecutionPlan.run` is simply
``bind(...).apply()``.  The service keeps one bound run beside the
checked views it was built from (the communicator's views record), so
a tenant repeating a collective on the same buffers replays it, and
whatever drops the record — a free, a destroy, a restart, an upgrade, a
membership change — drops the calls with it.

**Cache blocking.**  Plan order runs the earliest pipeline step first, so
at a large size every record streams a chunk the previous step has
already pushed out of cache.  Resolution (cached per plan, size, block
relabelling and tile) therefore reorders the records, and splits wide
ones, without changing what any element sees:

* *chains* — the records are partitioned into connected components of
  records whose accesses overlap in memory.  A rank's receive buffer
  counts as its send buffer's memory (at the rank's own block for
  reduce-scatter), because an in-place run passes one as the other.
  Chains touch disjoint memory, so they run one after another, each in
  plan order;
* *alignment* — coalesced records overlap at different starts (the
  double tree at world 6 and 8, every butterfly).  In a chain with a
  record wider than one tile, each record is split at every cut point —
  an edge of another access of the same memory inside one of its
  accesses, carried at the same offset to its other accesses — until any
  two overlapping accesses cover identical ranges.  The pieces fall into
  finer chains whose records all have one width;
* *tile-major order* — an aligned chain wider than a tile is emitted
  tile by tile: every record on its first tile, then every record on its
  second, and so on.  A numpy call touches offset ``k`` of each access
  only at offset ``k`` of the others, and overlapping accesses are
  identical, so every element sees the same operations in the same
  order as in plan order and the results are bit-identical.  A chain no
  wider than a tile keeps its records, and a size with no record wider
  than a tile resolves to exactly the plan's order, so small collectives
  make no extra numpy call;
* *the tile* — :data:`TILE_BYTES`.  A ring, tree or butterfly chain
  touches every rank's send and receive buffer, so one tile of a world-8
  chain is 16 tiles of memory: 2 MiB, one core's L2 on the Xeon it was
  measured on (2 MiB L2 per core, 105 MiB shared L3).  There, an 8-rank
  float32 AllReduce at 16 MiB (ring + tree + butterfly) ran ~30 % faster
  than in plan order at any tile from 64 to 256 KiB, and slower at
  16-32 KiB (per-call overhead) and 512 KiB and up (past L2).

**Lanes.**  The blocker's output is a list of *blocks* — a chain no wider
than a tile, or one tile of an aligned chain — that touch disjoint
memory, so any order of blocks gives the same bytes.  Where there is more
than one (some record is wider than a tile), resolution also cuts the
blocks, in order, into two *lanes* of about equal bytes touched, and
``apply`` runs the second lane on a helper thread (its
:class:`Staging`'s) while the calling thread applies the first; numpy
releases the GIL inside each call, so the two cores stream at once.
Every element still sees the same operations in the same order, so the
results are bit-identical to one lane's.  Two lanes run only when the
process's CPU affinity mask holds at least two CPUs when the run is
bound; otherwise, and for any size with no record wider than a tile
(every small collective), the calling thread applies the records alone,
in the same order as before.

**Scratch.**  A chunk that is part of a rank's output is written straight
into its receive buffer: every chunk of all-reduce, all-gather and
broadcast, a reduce-scatter rank's own block, the reduce root's vector.
Everything else — reduce-scatter's partial sums of other ranks' blocks,
reduce's non-root partial sums and the hazard rule's snapshots — is a
*value* that lives in a chunk-sized slot of one pool, which is a view of
a :class:`Staging` buffer the caller owns (``pool × largest chunk``
elements).  A compile-time liveness pass allocates the slots, and three
invariants hold:

* a value holds its pool slot from its first write to its last reader,
  and the slot is free again as soon as that reader has run (the reader's
  own write may take it);
* a reduction into a value updates it in its slot, so no record reads
  and writes two different places for one rank's chunk;
* records merge only where both the logical chunks and the pool slots
  are contiguous; where a short chunk would leave a gap in a merged run
  of slots, the run resolves chunk by chunk.

**Hazard rule.**  IR semantics are "a send ships the slot's value at the
send".  Reading the sender's slot at the *receive* is the same thing
only if nothing writes that slot in between; compilation tracks the
un-received sends of every (rank, chunk) and snapshots a slot only when
a write lands under one (a two-rank swap that ``recv_reduce``s the same
chunk both ways in one step).  The shipped generators compile to zero
snapshots.

**Relabelling.**  Built-in plans are compiled in ring-*position* space
(:func:`builtin_plan`, keyed on family/kind/world/root position) and
mapped onto ranks by the ``order`` argument of ``bind``, so installing a
new ring order or channel count never recompiles anything.

**The schedule's other clock.**  A plan also keeps the two
size-independent facts simulated *time* needs — its pipeline step count
and, per sending position, who it sends to on which IR channel
(:attr:`ExecutionPlan.sends`) — so :mod:`repro.core.algorithms` derives
flows and fixed latency from the very program that moves the bytes.
"""

from __future__ import annotations

import heapq
import itertools
import os
import weakref
from bisect import bisect_left, bisect_right
from functools import lru_cache
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

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

if TYPE_CHECKING:
    from concurrent.futures import ThreadPoolExecutor

#: Identity of one instruction inside a program: (rank, index-in-program).
NodeId = Tuple[int, int]

_ROOTED = (Collective.BROADCAST, Collective.REDUCE)

#: Bytes of one tile of a cache-blocked chain ("the tile" in the module
#: docstring).
TILE_BYTES = 128 * 1024


# ---------------------------------------------------------------------------
# compile: matching, dependency order, hazards, slots, coalescing
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


class Staging:
    """The executor's scratch: one byte buffer, grown to the largest
    request and never shrunk.

    A plan's slot pool — the partial sums of chunks a rank does not
    output (reduce-scatter's other blocks, reduce's non-roots) and the
    hazard rule's snapshots, one chunk-sized slot each — is a view of
    it, so a caller that keeps one (an
    :class:`~repro.core.deployment.MccsDeployment` does, for all its
    communicators) faults its pages in once instead of on every
    collective.  A caller with nothing to keep passes none and
    :meth:`ExecutionPlan.bind` takes a fresh one.

    Invariants that make the reuse safe:

    * a view of the buffer lives only in the resolved calls of a
      :class:`BoundRun` and is never handed to a caller: every output
      chunk is written straight into the caller's receive buffer (or a
      freshly allocated output), never staged and copied out;
    * every bound run that holds such views is registered here
      (:meth:`hold`), and replacing the buffer releases them all, so a
      replaced buffer is dead as soon as the old run's caller is: no
      kept bound run pins it;
    * bound runs that share the buffer never see each other's values:
      an apply writes every pool slot before reading it, makes no
      callbacks and is not re-entrant, so one apply's scratch is dead
      before the next apply writes its own;
    * the buffer is allocated here and never aliases tenant memory;
    * the thread that applies a run's second lane (see "Lanes" in
      :mod:`repro.collectives.executor`) is this object's own: it starts
      on the first apply with two lanes and exits once this object is
      collected;
    * ``apply`` returns, or raises, only after every lane has stopped,
      so no lane is still writing when it does.
    """

    __slots__ = ("_buffer", "_helper", "_holders")

    def __init__(self) -> None:
        self._buffer = np.empty(0, np.uint8)
        self._helper: Optional[ThreadPoolExecutor] = None
        self._holders: "weakref.WeakSet[BoundRun]" = weakref.WeakSet()

    @property
    def nbytes(self) -> int:
        """Bytes held: the largest working set requested so far."""
        return self._buffer.nbytes

    def arrays(self, count: int, elems: int, dtype: np.dtype) -> np.ndarray:
        """A ``(count, elems)`` array of ``dtype``: ``count`` disjoint
        ``elems``-element rows, contents undefined.  A request larger
        than the buffer replaces it, and releases every bound run that
        viewed the old one."""
        need = count * elems * dtype.itemsize
        if need > self._buffer.nbytes:
            for run in list(self._holders):
                run.release()
            self._holders.clear()
            self._buffer = np.empty(need, np.uint8)
        return self._buffer[:need].view(dtype).reshape(count, elems)

    def hold(self, run: "BoundRun") -> None:
        """Note that ``run`` keeps views of the buffer, so that replacing
        the buffer releases them (the registration is weak)."""
        self._holders.add(run)

    def helper(self) -> ThreadPoolExecutor:
        """The one worker thread that applies second lanes, started on
        first use."""
        if self._helper is None:
            # Imported here: concurrent.futures loads logging, which a
            # process that never runs two lanes should not pay for.
            from concurrent.futures import ThreadPoolExecutor

            self._helper = ThreadPoolExecutor(1, thread_name_prefix="executor-lane")
        return self._helper


#: One resolved numpy call of a bound run: ``(reduce?, target view or
#: None for a copy, src view, dst view)``.
Call = Tuple[bool, Optional[np.ndarray], np.ndarray, np.ndarray]


class BoundRun:
    """One collective bound to its buffers (module docstring, "Binding").

    Holds the kind's prologue and epilogue copies as ``(dst, src)`` view
    pairs, the resolved records of each lane, the arrays they index —
    receive buffers, then send buffers, in position order — and the pool
    geometry.  The first :meth:`apply` resolves the records to
    :data:`Call` tuples, and every apply replays those.
    """

    __slots__ = (
        "_ufunc", "_prologue", "_lanes", "_arrays", "_pool", "_staging",
        "_epilogue", "_outputs", "_calls", "__weakref__",
    )

    def __init__(
        self,
        ufunc: np.ufunc,
        prologue: tuple,
        lanes: Tuple[tuple, ...],
        arrays: List[np.ndarray],
        pool: Tuple[int, int, np.dtype],
        staging: Staging,
        epilogue: tuple,
        outputs: List[np.ndarray],
    ) -> None:
        self._ufunc = ufunc
        self._prologue = prologue
        self._lanes = lanes
        self._arrays = arrays
        self._pool = pool
        self._staging = staging
        self._epilogue = epilogue
        self._outputs = outputs
        self._calls: Optional[Tuple[List[Call], ...]] = None

    def release(self) -> None:
        """Drop the resolved calls, and with them every view of the
        staging buffer; the next :meth:`apply` resolves them again."""
        self._calls = None

    def apply(self) -> List[np.ndarray]:
        """Run the collective once more on the bound buffers; returns the
        per-rank outputs."""
        calls = self._calls
        if calls is None:  # the first apply, or released
            calls = self._calls = self._resolved()
        for dst, src in self._prologue:
            dst[...] = src
        if len(calls) == 1:
            self._replay(calls[0])
        else:
            second = self._staging.helper().submit(self._replay, calls[1])
            try:
                self._replay(calls[0])
            finally:
                second.result()  # waits for the lane, and raises its error
        for dst, src in self._epilogue:
            dst[...] = src
        return list(self._outputs)

    def _resolved(self) -> Tuple[List[Call], ...]:
        """Each lane's records as calls on the bound arrays and the pool,
        in one pass that only slices."""
        arrays = self._arrays
        count, elems, dtype = self._pool
        if count:
            arrays = arrays + [self._staging.arrays(count, elems, dtype).reshape(-1)]
            self._staging.hold(self)
        return tuple(
            [
                (reduce, arrays[target][tspan] if reduce else None,
                 arrays[src][sspan], arrays[dst][dspan])
                for reduce, dst, dspan, target, tspan, src, sspan in lane
            ]
            for lane in self._lanes
        )

    def _replay(self, calls: List[Call]) -> None:
        ufunc = self._ufunc
        for reduce, target, src, dst in calls:
            if reduce:
                ufunc(target, src, out=dst)
            else:
                dst[...] = src


class ExecutionPlan:
    """A compiled program: indices only, reusable for any buffer size.

    ``ops`` records are ``(reduce, dst, target, src, dlo, dhi, slo, shi)``
    over *operand ids* and half-open chunk ranges: ``p`` is position
    ``p``'s receive buffer, ``world + p`` its send buffer and
    ``2 * world + k`` the slot pool from slot ``k`` on (chunk ``dlo`` in
    slot ``k``, ``dlo + 1`` in slot ``k + 1``, …).  ``target`` is the
    first operand of a reduction: the send buffer while the rank's chunk
    is unwritten, else ``dst``.  ``hops[i]`` is the (sending, receiving)
    position of record ``i`` — one position twice for a local copy or a
    snapshot — and ``pool`` the number of slots the records use.

    ``sends[p]`` is position ``p``'s *send table*: one ``(dst position,
    IR channel, chunk ids)`` entry per distinct (dst, channel) it sends
    to, entries and chunk ids in program order.  ``striped`` says how to
    read the channels: False, they name the connection channels
    themselves; True (:func:`builtin_plan`), the schedule is
    channel-agnostic and each IR channel is a lane the flow model stripes
    evenly over however many channels the strategy opens.
    """

    __slots__ = (
        "name", "kind", "world", "num_chunks", "root", "ops", "hops", "pool",
        "snapshots", "steps", "sends", "striped",
    )

    def __init__(
        self, program: Program, ops: tuple, hops: tuple, pool: int, snapshots: int
    ) -> None:
        self.name = program.name
        self.kind = program.kind
        self.world = program.world
        self.num_chunks = program.num_chunks
        self.root = program.root
        self.ops = ops
        self.hops = hops
        self.pool = pool
        #: Slot copies the hazard rule forced.
        self.snapshots = snapshots
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
        spans = _spans(self, elems, self._blocks(order))
        traffic: Dict[Tuple[int, int], int] = {}
        for (_, _, _, _, lo, hi, _, _), (a, b) in zip(self.ops, self.hops):
            nbytes = (spans[hi - 1][1] - spans[lo][0]) * itemsize
            if a != b and nbytes:
                pair = (a, b) if order is None else (order[a], order[b])
                traffic[pair] = traffic.get(pair, 0) + nbytes
        return traffic

    def records(
        self, elems: int, itemsize: int, order: Optional[Sequence[int]] = None
    ) -> tuple:
        """The ``(reduce, dst, dspan, target, tspan, src, sspan)`` records
        — one numpy call each — that a bound run applies to a working
        vector of ``elems`` elements of ``itemsize`` bytes."""
        return _resolve(self, elems, self._blocks(order), TILE_BYTES // itemsize)[0]

    def run(
        self,
        inputs: Sequence[np.ndarray],
        op: ReduceOp = ReduceOp.SUM,
        *,
        order: Optional[Sequence[int]] = None,
        out: Optional[Sequence[np.ndarray]] = None,
        staging: Optional[Staging] = None,
    ) -> List[np.ndarray]:
        """Execute on real buffers once: :meth:`bind` the arguments, apply
        the bound run; returns the per-rank outputs."""
        return self.bind(inputs, op, order, out, staging).apply()

    def bind(
        self,
        inputs: Sequence[np.ndarray],
        op: ReduceOp,
        order: Optional[Sequence[int]],
        out: Optional[Sequence[np.ndarray]],
        staging: Optional[Staging],
    ) -> BoundRun:
        """This plan bound to real buffers, ready to :meth:`~BoundRun.apply`.

        ``inputs[r]`` is rank ``r``'s send buffer (never written unless it
        *is* the receive buffer).  ``out[r]``, when given, is rank ``r``'s
        contiguous receive buffer and is written in place; otherwise
        outputs are allocated here, once.  ``order[p]`` is the rank at
        position ``p`` for plans compiled in position space.  The slot
        pool comes from ``staging`` (a fresh :class:`Staging` when None),
        and so does the thread that applies a second lane.  Conventions
        are those of :mod:`repro.collectives.reference`.
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
        prologue = epilogue = ()
        if kind is Collective.ALL_GATHER:
            prologue = tuple(
                (w[r * size : (r + 1) * size], s) for r, w, s in zip(ranks, recv, send)
            )
        elif kind is Collective.BROADCAST:
            prologue = ((recv[self.root], send[self.root]),)
        elif kind is Collective.REDUCE:
            epilogue = tuple(
                (o, s) for p, (o, s) in enumerate(zip(recv, send)) if p != self.root
            )
        records, slot, lanes = _resolve(
            self, total, self._blocks(order), TILE_BYTES // first.itemsize
        )
        if lanes is None or not _two_cpus():
            lanes = (records,)
        return BoundRun(
            op.ufunc, prologue, lanes, recv + send, (self.pool, slot, first.dtype),
            Staging() if staging is None else staging, epilogue, list(out),
        )


def _two_cpus() -> bool:
    """Whether this process may run on two CPUs at once."""
    return hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) > 1


def _spans(
    plan: ExecutionPlan, total: int, blocks: Optional[Tuple[int, ...]]
) -> List[Tuple[int, int]]:
    """(lo, hi) element extent of each chunk in a ``total``-element working
    vector, rank blocks relabelled through ``blocks``."""
    spans = chunk_spans(plan.kind, total, plan.num_chunks, plan.world)
    if blocks is not None:
        # Position-space block b is the block of the rank sitting at b.
        per = plan.num_chunks // plan.world
        spans = [spans[blocks[c // per] * per + c % per] for c in range(len(spans))]
    return spans


@lru_cache(maxsize=256)
def _resolve(
    plan: ExecutionPlan, total: int, blocks: Optional[Tuple[int, ...]], tile: int
) -> Tuple[tuple, int, Optional[Tuple[tuple, tuple]]]:
    """``plan.ops`` as ``(reduce, dst, dspan, target, tspan, src, sspan)``
    records over a run's arrays — receive buffers, send buffers, then the
    flat pool as array ``2 * world`` — for a ``total``-element working
    vector, empty transfers dropped and chains wider than ``tile``
    elements emitted tile by tile (:func:`_cache_blocked`); the elements
    of one pool slot (the largest chunk); and the records cut into two
    lanes (:func:`_lanes`), or None where the blocker split nothing."""
    n = plan.world
    spans = _spans(plan, total, blocks)
    slot = max((hi - lo for lo, hi in spans), default=0)
    # A reduce-scatter receive buffer is one block: its chunks are placed
    # relative to the start of the position's own block.
    base = [0] * n
    if plan.kind is Collective.REDUCE_SCATTER:
        per = plan.num_chunks // n
        base = [spans[p * per][0] for p in range(n)]

    slices: Dict[Tuple[int, int], slice] = {}  # one object per extent

    def place(operand: int, lo: int, hi: int) -> Tuple[int, slice]:
        start, stop = spans[lo][0], spans[hi - 1][1]
        if operand >= 2 * n:  # each chunk at the start of its own slot
            start, stop = (operand - 2 * n) * slot, (operand - 2 * n) * slot + stop - start
            operand = 2 * n
        elif operand < n:
            start, stop = start - base[operand], stop - base[operand]
        return operand, slices.setdefault((start, stop), slice(start, stop))

    def advance(operand: int, by: int) -> int:
        return operand + by if operand >= 2 * n else operand

    resolved = []
    for reduce, dst, target, src, dlo, dhi, slo, shi in plan.ops:
        width = spans[dhi - 1][1] - spans[dlo][0]
        if width != spans[shi - 1][1] - spans[slo][0]:
            raise MalformedProgramError(
                f"{plan.name}: copies chunk {slo} ({spans[shi - 1][1] - spans[slo][0]} "
                f"elems) into chunk {dlo} ({width} elems)"
            )
        pieces = [(0, dhi - dlo)]
        if max(dst, target, src) >= 2 * n and any(
            spans[c][1] - spans[c][0] < slot for c in range(dlo, dhi - 1)
        ):  # a short chunk leaves a gap in its slot: one piece per chunk
            pieces = [(i, i + 1) for i in range(dhi - dlo)]
        for a, b in pieces:
            if spans[dlo + b - 1][1] > spans[dlo + a][0]:
                resolved.append(
                    (reduce, *place(advance(dst, a), dlo + a, dlo + b),
                     *place(advance(target, a), dlo + a, dlo + b),
                     *place(advance(src, a), slo + a, slo + b))
                )
    blocked = _cache_blocked(resolved, n, base, tile)
    return tuple(itertools.chain.from_iterable(blocked)), slot, _lanes(blocked)


def _width(record: tuple) -> int:
    return record[2].stop - record[2].start


def _lanes(blocks: List[List[tuple]]) -> Optional[Tuple[tuple, tuple]]:
    """``blocks`` cut, in order, into two lanes of about equal bytes
    touched (a reduction touches three accesses, a copy two); None for a
    single block."""
    if len(blocks) < 2:
        return None
    ends = list(itertools.accumulate(
        sum(_width(record) * (2 + record[0]) for record in block) for block in blocks
    ))
    cut = min(range(1, len(blocks)), key=lambda i: abs(2 * ends[i - 1] - ends[-1]))
    return (
        tuple(itertools.chain.from_iterable(blocks[:cut])),
        tuple(itertools.chain.from_iterable(blocks[cut:])),
    )


def _cache_blocked(
    records: List[tuple], n: int, base: List[int], tile: int
) -> List[List[tuple]]:
    """``records`` as blocks that touch disjoint memory, reordered (and,
    past one tile, split) so that each chain's working set streams through
    cache once: every chain wider than ``tile`` elements is aligned and
    emitted tile-major, one block per tile; a narrower chain is one block,
    and so is the whole list when no record is wider than a tile."""
    if all(_width(record) <= tile for record in records):
        return [records]
    slices: Dict[Tuple[int, int], slice] = {}

    def locate(record: tuple) -> List[Tuple[int, int]]:
        """(memory, first element) of each access.  A rank's receive
        buffer counts as its send buffer's memory — it may *be* the send
        buffer, or (reduce-scatter) the rank's own block of it."""
        return [
            (operand, span.start + base[operand]) if operand < n
            else (operand - n if operand < 2 * n else operand, span.start)
            for operand, span in (record[1:3], record[3:5], record[5:7])
        ]

    def piece(record: tuple, a: int, b: int) -> tuple:
        """Elements ``[a, b)`` of every access of ``record``."""
        cut = [
            slices.setdefault(key, slice(*key))
            for key in ((span.start + a, span.start + b) for span in record[2::2])
        ]
        return (record[0], record[1], cut[0], record[3], cut[1], record[5], cut[2])

    def chains(records: List[tuple]) -> List[List[tuple]]:
        """Connected components of records whose accesses overlap, each
        in plan order, ordered by their first record."""
        parent = list(range(len(records)))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        extents: Dict[int, List[Tuple[int, int, int]]] = {}
        for i, record in enumerate(records):
            for memory, start in locate(record):
                extents.setdefault(memory, []).append((start, start + _width(record), i))
        for extent in extents.values():
            extent.sort()
            head, reach = -1, -1
            for start, stop, i in extent:
                if start < reach:
                    parent[find(i)] = find(head)
                    reach = max(reach, stop)
                else:
                    head, reach = i, stop
        groups: Dict[int, List[tuple]] = {}
        for i, record in enumerate(records):
            groups.setdefault(find(i), []).append(record)
        return list(groups.values())

    def align(chain: List[tuple]) -> List[tuple]:
        """Split records at every cut point — any access's edge inside
        another access of the same memory, carried to the record's other
        accesses — until overlapping accesses cover identical ranges."""
        cuts = [{0, _width(record)} for record in chain]
        grew = True
        while grew:
            edges: Dict[int, set] = {}
            for record, cut in zip(chain, cuts):
                for memory, start in locate(record):
                    edges.setdefault(memory, set()).update(start + c for c in cut)
            ordered = {memory: sorted(edge) for memory, edge in edges.items()}
            grew = False
            for record, cut in zip(chain, cuts):
                for memory, start in locate(record):
                    edge = ordered[memory]
                    inner = edge[bisect_right(edge, start) : bisect_left(edge, start + _width(record))]
                    new = {x - start for x in inner} - cut
                    if new:
                        cut |= new
                        grew = True
        return [
            piece(record, a, b)
            for record, cut in zip(chain, cuts)
            for a, b in itertools.pairwise(sorted(cut))
        ]

    blocks: List[List[tuple]] = []
    for chain in chains(records):
        if all(_width(record) <= tile for record in chain):
            blocks.append(chain)
            continue
        for aligned in chains(align(chain)):
            width = _width(aligned[0])
            blocks += [
                [piece(record, lo, min(lo + tile, width)) for record in aligned]
                for lo in range(0, width, tile)
            ]
    return blocks


def compile_program(program: Program) -> ExecutionPlan:
    """Compile ``program`` (assumed valid) into an :class:`ExecutionPlan`."""
    return compile_schedule(program, *schedule(program))


def compile_schedule(
    program: Program, order: List[NodeId], send_of: Dict[NodeId, NodeId]
) -> ExecutionPlan:
    """Compile ``program`` under the :func:`schedule` it already has (the
    validator's, so a checked program is ordered once)."""
    n, kind = program.world, program.kind
    per_block = program.num_chunks // n if kind in blocked_kinds() else 0

    def output(rank: int, chunk: int) -> bool:
        """Whether ``chunk`` is part of ``rank``'s output, so its writes
        land straight in the receive buffer."""
        if kind is Collective.REDUCE_SCATTER:
            return chunk // per_block == rank
        return kind is not Collective.REDUCE or rank == program.root

    # Operand holding the value of each written (rank, chunk); any other
    # chunk is read from the rank's send buffer until its first write.
    where: Dict[Tuple[int, int], int] = {}
    if kind is Collective.ALL_GATHER:
        where = {(c // per_block, c): c // per_block for c in range(program.num_chunks)}
    elif kind is Collective.BROADCAST:
        where = {(program.root, c): program.root for c in range(program.num_chunks)}
    # Pool values are numbered from 2 * n here and given slots below.
    values = itertools.count(2 * n)
    ops: List[Optional[tuple]] = []
    hops: List[Optional[Tuple[int, int]]] = []
    pairs: Dict[Tuple[int, int], Tuple[int, int]] = {}  # one tuple per hop
    #: un-received send -> (its placeholder in ops, operand holding the value)
    pending: Dict[NodeId, Tuple[int, int]] = {}
    outstanding: Dict[Tuple[int, int], List[NodeId]] = {}
    snapshots = 0

    for node in order:
        rank, idx = node
        instr = program.rank_programs[rank][idx]
        chunk = instr.chunk
        holder = where.get((rank, chunk), n + rank)
        if instr.kind is OpKind.SEND:
            pending[node] = (len(ops), holder)
            outstanding.setdefault((rank, chunk), []).append(node)
            ops.append(None)
            hops.append(None)
            continue
        if instr.kind is OpKind.COPY:
            sender, src_chunk = rank, instr.src_chunk
            src = where.get((rank, src_chunk), n + rank)
        else:
            send = send_of[node]
            sender, src_chunk = instr.peer, chunk
            src = pending.pop(send)[1]
            waiting = outstanding.get((sender, chunk), ())
            if send in waiting:  # not snapshotted
                waiting.remove(send)
        # Hazard rule: this write lands under un-received sends of the
        # same (rank, chunk), so each of them ships a snapshot taken at
        # the send.
        for send in outstanding.pop((rank, chunk), ()):
            at, value = pending[send]
            temp = next(values)
            ops[at] = (False, temp, temp, value, chunk, chunk + 1, chunk, chunk + 1)
            hops[at] = pairs.setdefault((rank, rank), (rank, rank))
            pending[send] = (at, temp)
            snapshots += 1
        reduce = instr.kind is OpKind.RECV_REDUCE
        dst = target = holder
        if output(rank, chunk):
            dst = rank
        elif not (reduce and holder >= 2 * n):  # else: reduce into its own slot
            dst = next(values)
            target = holder if reduce else dst
        ops.append((reduce, dst, target, src, chunk, chunk + 1, src_chunk, src_chunk + 1))
        hops.append(pairs.setdefault((sender, rank), (sender, rank)))
        where[(rank, chunk)] = dst

    records, pool = _allocate([op for op in ops if op is not None], n)
    merged, merged_hops = _merge(records, [hop for hop in hops if hop is not None], n, per_block)
    return ExecutionPlan(program, tuple(merged), tuple(merged_hops), pool, snapshots)


def _allocate(records: List[tuple], n: int) -> Tuple[List[tuple], int]:
    """Liveness pass: give each pool value (operand ``>= 2 * n``) a slot
    from its first write to its last reader, lowest free slot first.  A
    slot is free again once its value's last reader has run — for that
    reader's own write, even (``out=`` the input it just consumed).
    Returns the records over slot ids and the number of slots."""
    last: Dict[int, int] = {}
    for i, record in enumerate(records):
        for operand in record[1:4]:
            if operand >= 2 * n:
                last[operand] = i
    if not last:
        return records, 0
    slot_of: Dict[int, int] = {}
    free: List[int] = []
    pool = 0
    placed = []
    for i, record in enumerate(records):
        dst, target, src = record[1:4]
        for operand in {target, src} - {dst}:
            if operand >= 2 * n and last[operand] == i:
                heapq.heappush(free, slot_of[operand])
        if dst >= 2 * n and dst not in slot_of:
            if free:
                slot_of[dst] = heapq.heappop(free)
            else:
                slot_of[dst], pool = pool, pool + 1
        placed.append(
            record[:1]
            + tuple(x if x < 2 * n else 2 * n + slot_of[x] for x in record[1:4])
            + record[4:]
        )
        if dst >= 2 * n and last[dst] == i:
            heapq.heappush(free, slot_of[dst])
    return placed, pool


def _merge(
    records: List[tuple], hops: List[Tuple[int, int]], n: int, per_block: int
) -> Tuple[List[tuple], List[Tuple[int, int]]]:
    """Coalesce adjacent chunks of one transfer into one record, where
    both the logical chunks and the pool slots are contiguous."""
    merged: List[tuple] = []
    merged_hops: List[Tuple[int, int]] = []
    for record, hop in zip(records, hops):
        _, _, _, _, dlo, dhi, slo, shi = record
        last = merged[-1] if merged else None
        if (
            last is not None
            and (last[0], merged_hops[-1]) == (record[0], hop)  # the same transfer ...
            and last[4:6] == last[6:8]  # ... of one chunk range, not a local copy ...
            and last[5] == dlo == slo  # ... continued by the next chunk ...
            and (not per_block or last[4] // per_block == dlo // per_block)
            and all(  # ... of the same rank block, between the same buffers
                now == then + (last[5] - last[4] if then >= 2 * n else 0)
                for then, now in zip(last[1:4], record[1:4])
            )  # and pool slots: one numpy call moves both
        ):
            merged[-1] = last[:5] + (dhi, last[6], shi)
        else:
            merged.append(record)
            merged_hops.append(hop)
    return merged, merged_hops


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
