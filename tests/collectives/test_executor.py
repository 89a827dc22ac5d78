"""The one executor: generators, compile-time analysis, in-place runs.

Every program family is held byte-exact against the numpy oracle, the
compiled plan's per-edge bytes against the closed-form traffic models,
and the executor's read-at-the-receive shortcut against a naive
snapshot-every-send interpreter kept here as the executable IR
semantics — with its scratch in one reused staging buffer that is
poisoned before every run.
"""

import json
import os
import pathlib
import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.collectives import (
    Instr,
    OpKind,
    Staging,
    builtin_plan,
    compile_program,
    double_tree_program,
    halving_doubling_program,
    hierarchical_allreduce_program,
    make_program,
    ring_program,
)
from repro.collectives import executor
from repro.collectives.executor import ExecutionPlan, schedule
from repro.collectives.ir import chunk_spans
from repro.collectives.reference import reference_outputs
from repro.collectives.types import Collective, ReduceOp
from repro.errors import MalformedProgramError
from repro.synth import validate_program

from .oracles import plan_order_run


# ---------------------------------------------------------------------------
# the naive interpreter: a send copies the slot, a receive consumes the copy
# ---------------------------------------------------------------------------
def naive_run(program, inputs, op):
    """Executable IR semantics, no shortcuts: full working copies, a
    payload snapshot at every send, ``combine(target, payload)`` at every
    ``recv_reduce``.  Conventions of ``collectives.reference``."""
    world = program.world
    size = inputs[0].size
    if program.kind is Collective.ALL_GATHER:
        work = [np.zeros(size * world, inputs[0].dtype) for _ in range(world)]
        for r in range(world):
            work[r][r * size : (r + 1) * size] = inputs[r].ravel()
    else:
        work = [a.copy().ravel() for a in inputs]
    spans = chunk_spans(program.kind, work[0].size, program.num_chunks, world)
    view = lambda rank, chunk: work[rank][slice(*spans[chunk])]
    in_flight = {}
    for rank, idx in schedule(program)[0]:
        instr = program.rank_programs[rank][idx]
        if instr.kind is OpKind.SEND:
            key = (rank, instr.peer, instr.chunk, instr.channel, instr.step)
            in_flight[key] = view(rank, instr.chunk).copy()
        elif instr.kind is OpKind.COPY:
            view(rank, instr.chunk)[:] = view(rank, instr.src_chunk)
        else:
            payload = in_flight.pop(
                (instr.peer, rank, instr.chunk, instr.channel, instr.step)
            )
            dst = view(rank, instr.chunk)
            if instr.kind is OpKind.RECV:
                dst[:] = payload
            else:
                dst[:] = op.combine(dst, payload)
    if program.kind is Collective.REDUCE_SCATTER:
        block = size // world
        return [work[r][r * block : (r + 1) * block] for r in range(world)]
    if program.kind is Collective.REDUCE:
        return [
            work[r] if r == program.root else inputs[r].ravel()
            for r in range(world)
        ]
    return work


def _inputs(kind, world, elems, dtype, rng):
    size = elems * world if kind is Collective.REDUCE_SCATTER else elems
    return [rng.integers(1, 4, size=size).astype(dtype) for _ in range(world)]


def _assert_same(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        np.testing.assert_array_equal(np.ravel(a), np.ravel(b))


#: Elements a poisoned staging buffer holds at least: more than any run
#: in this file asks for, so no run grows it past the poison.
_POISONED_ELEMS = 1 << 12


@pytest.fixture(scope="module")
def staging():
    """One staging buffer reused by every run of a test, as a deployment
    reuses its own: a read of scratch before its first write sees the
    previous run's (here: poisoned) bytes instead of fresh zero pages."""
    return Staging()


def _poisoned_run(staging, plan, inputs, op=ReduceOp.SUM, **kwargs):
    """``plan.run`` on ``staging`` after filling it with a value no correct
    run reads (NaN; the dtype's max for ints), checking that nothing the
    run returns or was handed shares memory with it."""
    dtype = inputs[0].dtype
    staging.arrays(1, _POISONED_ELEMS, dtype)
    (buffer,) = staging.arrays(1, staging.nbytes // dtype.itemsize, dtype)
    buffer.fill(np.nan if dtype.kind == "f" else np.iinfo(dtype).max)
    held = staging.nbytes
    got = plan.run(inputs, op, staging=staging, **kwargs)
    assert staging.nbytes == held  # the run used the poisoned bytes
    for array in [*got, *inputs, *(kwargs.get("out") or ())]:
        assert not np.shares_memory(array, buffer)
    return got


# ---------------------------------------------------------------------------
# generators vs the numpy oracle
# ---------------------------------------------------------------------------
@given(
    kind=st.sampled_from(list(Collective)),
    world=st.integers(2, 9),
    elems=st.sampled_from([1, 5, 7, 13, 23]),
    op=st.sampled_from(list(ReduceOp)),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=60, deadline=None)
def test_ring_program_matches_reference(kind, world, elems, op, seed):
    rng = np.random.default_rng(seed)
    root = world - 1
    inputs = _inputs(kind, world, elems, np.int64, rng)
    kept = [a.copy() for a in inputs]
    outputs = compile_program(ring_program(kind, world, root=root)).run(inputs, op)
    _assert_same(outputs, reference_outputs(kind, kept, op=op, root=root))
    _assert_same(inputs, kept)  # send buffers are never written


@given(
    world=st.integers(2, 6).flatmap(
        lambda w: st.tuples(st.just(w), st.permutations(range(w)))
    ),
    kind=st.sampled_from(list(Collective)),
    root=st.integers(0, 5),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=60, deadline=None)
def test_position_space_plan_relabelled_equals_program_built_on_the_order(
    world, kind, root, seed
):
    """Compile once with the identity ring, relabel through ``order`` at
    run time: bit-identical (float32, random data) to compiling the ring
    program built on that order, and byte-exact vs the oracle on ints."""
    world, order = world
    root %= world
    rng = np.random.default_rng(seed)
    size = 6 * world if kind is Collective.REDUCE_SCATTER else 11
    floats = [rng.standard_normal(size).astype(np.float32) for _ in range(world)]
    plan = builtin_plan("ring", kind, world, list(order).index(root))
    direct = compile_program(ring_program(kind, world, order=order, root=root)).run(floats)
    _assert_same(plan.run(floats, order=order), direct)
    ints = _inputs(kind, world, 5, np.int32, rng)
    _assert_same(
        plan.run(ints, ReduceOp.MAX, order=order),
        reference_outputs(kind, ints, op=ReduceOp.MAX, root=root),
    )


@given(
    world=st.integers(2, 9),
    size=st.integers(1, 40),
    op=st.sampled_from(list(ReduceOp)),
    dtype=st.sampled_from([np.int64, np.float64]),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=60, deadline=None)
def test_tree_and_butterfly_programs_match_reference(world, size, op, dtype, seed):
    rng = np.random.default_rng(seed)
    order = tuple(rng.permutation(world).tolist())
    inputs = _inputs(Collective.ALL_REDUCE, world, size, dtype, rng)
    expected = reference_outputs(Collective.ALL_REDUCE, inputs, op=op)
    programs = [double_tree_program(world, order=order)]
    if world & (world - 1) == 0:
        programs.append(halving_doubling_program(world, order=order))
    for program in programs:
        validate_program(program)
        outputs = compile_program(program).run(inputs, op)
        assert all(out.dtype == dtype for out in outputs)
        _assert_same(outputs, expected)


@given(
    g=st.integers(1, 4),
    m=st.integers(1, 4),
    elems=st.sampled_from([1, 9, 17, 31]),
    op=st.sampled_from(list(ReduceOp)),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=40, deadline=None)
def test_hierarchical_allreduce_matches_reference(g, m, elems, op, seed):
    world = g * m
    if world < 2:
        return
    rng = np.random.default_rng(seed)
    groups = [list(range(j * m, (j + 1) * m)) for j in range(g)]
    inputs = _inputs(Collective.ALL_REDUCE, world, elems, np.int64, rng)
    outputs = compile_program(hierarchical_allreduce_program(groups)).run(inputs, op)
    _assert_same(outputs, reference_outputs(Collective.ALL_REDUCE, inputs, op=op))


def test_outputs_keep_the_input_shape():
    rng = np.random.default_rng(3)
    inputs = [rng.standard_normal((3, 5)) for _ in range(4)]
    outputs = builtin_plan("halving_doubling", Collective.ALL_REDUCE, 4).run(
        inputs, order=(2, 0, 3, 1)
    )
    for out in outputs:
        assert out.shape == (3, 5)
        assert np.allclose(out, np.sum(inputs, axis=0))


def test_handles_buffers_smaller_than_chunk_count():
    # 2 elements over 4 ranks: trailing chunks are empty, their transfers
    # are dropped when the plan is resolved for this size
    plan = builtin_plan("ring", Collective.ALL_REDUCE, 4)
    inputs = [np.full(2, float(r + 1)) for r in range(4)]
    for out in plan.run(inputs):
        np.testing.assert_array_equal(out, np.full(2, 10.0))
    assert sum(plan.edge_bytes(2, 8).values()) == 2 * 3 * 2 * 8  # 2(n-1)/n*S*n


# ---------------------------------------------------------------------------
# compile-time analysis
# ---------------------------------------------------------------------------
def _swap_program():
    """Two ranks recv_reduce the same chunk from each other in one step."""
    return make_program(
        "test:swap", Collective.ALL_REDUCE,
        [
            [Instr(OpKind.SEND, 0, peer=1), Instr(OpKind.RECV_REDUCE, 0, peer=1)],
            [Instr(OpKind.SEND, 0, peer=0), Instr(OpKind.RECV_REDUCE, 0, peer=0)],
        ],
        num_chunks=1,
    )


def test_shipped_generators_compile_to_zero_snapshots():
    programs = [ring_program(kind, w, root=w - 1) for kind in Collective for w in (2, 3, 8)]
    programs += [double_tree_program(w) for w in (2, 5, 8, 9)]
    programs += [halving_doubling_program(w) for w in (2, 4, 8, 16)]
    programs += [
        hierarchical_allreduce_program([[0, 1, 2, 3], [4, 5, 6, 7]]),
        hierarchical_allreduce_program([[0, 3], [1, 4], [2, 5]], channels=2),
    ]
    for program in programs:
        validate_program(program)
        assert compile_program(program).snapshots == 0, program.name


def test_swap_hazard_takes_exactly_one_snapshot_and_stays_exact():
    program = validate_program(_swap_program())
    plan = compile_program(program)
    assert plan.snapshots == 1  # the second write reads the first's snapshot
    inputs = [np.array([1.5, 2.0]), np.array([4.0, 8.5])]
    _assert_same(plan.run(inputs), [inputs[0] + inputs[1]] * 2)
    _assert_same(plan.run(inputs, out=[inputs[0], inputs[1]]), [np.array([5.5, 10.5])] * 2)
    # the snapshot stays on the sender; each rank still ships one chunk
    assert plan.edge_bytes(2, 8) == {(0, 1): 16, (1, 0): 16}


def test_adjacent_chunks_of_one_transfer_coalesce():
    # halving step one of an 8-rank butterfly ships 4 chunks per pair:
    # one numpy call each, so 8 transfers per step over 6 steps
    assert len(compile_program(halving_doubling_program(8)).ops) == 8 * 6
    # hierarchical phases 1 and 3 move g-chunk super-chunks whole
    hier = hierarchical_allreduce_program([[0, 1, 2, 3], [4, 5, 6, 7]])
    sends = sum(len(hier.sends_of(r)) for r in range(8))
    assert len(compile_program(hier).ops) < sends
    # blocked kinds never merge across rank blocks (they may be relabelled)
    gather = ring_program(Collective.ALL_GATHER, 4)
    assert len(compile_program(gather).ops) == 4 * 3


def test_plans_hold_indices_not_payload():
    plan = builtin_plan("ring", Collective.ALL_REDUCE, 8, 0)
    assert plan is builtin_plan("ring", Collective.ALL_REDUCE, 8, 5)  # unrooted
    assert all(isinstance(x, (bool, int)) for record in plan.ops for x in record)
    assert len(plan.ops) == 2 * 8 * 7
    # the schedule's other clock is integers too: steps and the send table
    assert plan.steps == 2 * 7
    assert plan.sends == tuple(
        (((p + 1) % 8, 0, tuple((p - s) % 8 for s in range(7))
          + tuple((p + 1 - s) % 8 for s in range(7))),)
        for p in range(8)
    )


@pytest.mark.parametrize("world", range(2, 10))
def test_scratch_is_a_few_chunk_slots_not_working_vectors(world):
    """``Staging.nbytes`` after one warm ring run: reduce-scatter holds at
    most ``world + 1`` blocks (full-width working vectors took
    ``world²``), reduce at most two outputs (they took ``world - 1``)."""
    rng = np.random.default_rng(world)
    out = 1000 + world  # elements of one output
    for kind, outputs in ((Collective.REDUCE_SCATTER, world + 1), (Collective.REDUCE, 2)):
        staging = Staging()
        inputs = _inputs(kind, world, out, np.float32, rng)
        plan = builtin_plan("ring", kind, world, world // 2)
        _assert_same(
            plan.run(inputs, staging=staging),
            reference_outputs(kind, inputs, root=world // 2),
        )
        assert staging.nbytes <= outputs * out * 4, (kind, staging.nbytes)


#: ``plan.ops`` of every built-in all-reduce, all-gather and broadcast
#: plan at worlds 4 and 8, as compiled before scratch became a slot pool.
GOLDEN_OPS = pathlib.Path(__file__).parent / "data" / "golden_plan_ops.json"


def test_kinds_whose_working_vector_is_the_output_keep_their_records():
    golden = json.loads(GOLDEN_OPS.read_text())
    assert len(golden) == 20
    for key, records in golden.items():
        family, kind, world, root = key.split()
        plan = builtin_plan(family, Collective(kind), int(world[1:]), int(root[4:]))
        assert plan.pool == 0, key
        assert plan.ops == tuple(map(tuple, records)), key


@st.composite
def random_programs(draw):
    """A random valid-by-construction all-reduce, reduce-scatter or
    reduce: chunks reduced along random rank chains — ending at the block
    owner, at the root, or (all-reduce) anywhere and then broadcast along
    random trees — with random step packing and channels.  Chunk groups
    of one or two (``per_block``) may travel together, so adjacent
    chunks merge; a chain may open with a swap (both ranks reduce the
    chunk from each other in one step), which forces a snapshot; and a
    rank may COPY a chunk onto itself after receiving it."""
    kind = draw(st.sampled_from(
        [Collective.ALL_REDUCE, Collective.REDUCE_SCATTER, Collective.REDUCE]
    ))
    world = draw(st.integers(2, 5))
    per_block = draw(st.integers(1, 2))
    if kind is Collective.REDUCE_SCATTER:
        num_chunks = world * per_block
    else:
        num_chunks = draw(st.integers(1, 4))
    channels = draw(st.integers(1, 2))
    root = draw(st.integers(0, world - 1))
    programs = [[] for _ in range(world)]
    step = 0

    def transfer(pairs, chunks, recv, channel):
        """Every ``(a, b)`` pair ships ``chunks`` a -> b; all sends first."""
        for a, b in pairs:
            for chunk in chunks:
                programs[a].append(Instr(OpKind.SEND, chunk, peer=b, channel=channel, step=step))
        for a, b in pairs:
            for chunk in chunks:
                programs[b].append(Instr(recv, chunk, peer=a, channel=channel, step=step))

    for first in range(0, num_chunks, per_block):
        block = list(range(first, min(first + per_block, num_chunks)))
        groups = [block] if draw(st.booleans()) else [[chunk] for chunk in block]
        for group in groups:
            if kind is Collective.ALL_REDUCE:
                chain = draw(st.permutations(range(world)))
            else:
                end = first // per_block if kind is Collective.REDUCE_SCATTER else root
                others = [rank for rank in range(world) if rank != end]
                chain = draw(st.permutations(others)) + [end]
            swap = draw(st.integers(0, 3)) == 0
            copy_at = draw(st.sampled_from([None, *chain[1:]]))
            for a, b in zip(chain, chain[1:]):
                channel = draw(st.integers(0, channels - 1))
                # a reversed hop splits what the previous hop merged
                chunks = group[::-1] if draw(st.booleans()) else group
                pairs = [(a, b), (b, a)] if swap else [(a, b)]
                transfer(pairs, chunks, OpKind.RECV_REDUCE, channel)
                swap = False
                if b == copy_at:
                    programs[b] += [
                        Instr(OpKind.COPY, chunk, step=step, src_chunk=chunk) for chunk in chunks
                    ]
                step += draw(st.integers(0, 1))
            step += 1
            if kind is not Collective.ALL_REDUCE:
                continue
            holders = [chain[-1]]
            for rank in draw(st.permutations(chain[:-1])):
                src = draw(st.sampled_from(holders))
                step += draw(st.integers(0, 1))
                transfer([(src, rank)], group, OpKind.RECV, 0)
                holders.append(rank)
            step += 1
    return make_program(
        f"test:random/{kind.value}", kind, programs,
        num_chunks=num_chunks, channels=channels, root=root,
    )


def test_merged_slots_of_short_chunks_are_placed_chunk_by_chunk(staging):
    """A reduce over four chunks of 6 elements (2, 2, 1, 1): rank 1
    reduces all four in one record into four adjacent 2-element slots,
    then forwards them to the root one at a time, chunk 3 first.  Each
    chunk must sit at the start of its own slot, where the single reads
    look, not packed behind the short chunk 2."""
    send = lambda a, b, chunk: Instr(OpKind.SEND, chunk, peer=b, step=a)
    recv = lambda a, b, chunk: Instr(OpKind.RECV_REDUCE, chunk, peer=a, step=a)
    hop2 = (3, 2, 1, 0)
    program = validate_program(make_program(
        "test:short-chunks", Collective.REDUCE,
        [
            [send(0, 1, c) for c in range(4)],
            [recv(0, 1, c) for c in range(4)] + [send(1, 2, c) for c in hop2],
            [recv(1, 2, c) for c in hop2],
        ],
        num_chunks=4, root=2,
    ))
    plan = compile_program(program)
    assert (plan.pool, plan.ops[0][4:6]) == (4, (0, 4))  # one record, four slots
    inputs = [np.arange(6, dtype=np.float32) * (r + 1) for r in range(3)]
    _assert_same(_poisoned_run(staging, plan, inputs), naive_run(program, inputs, ReduceOp.SUM))


def _in_place_buffers(kind, inputs):
    """Send and receive buffers of an in-place run: a reduce-scatter rank
    receives into its own block of its send buffer (NCCL's in-place
    convention), every other kind into the send buffer itself."""
    sends = [a.copy() for a in inputs]
    if kind is not Collective.REDUCE_SCATTER:
        return sends, sends
    block = sends[0].size // len(sends)
    return sends, [a[r * block : (r + 1) * block] for r, a in enumerate(sends)]


@given(
    program=st.one_of(random_programs(), st.just(_swap_program())),
    op=st.sampled_from(list(ReduceOp)),
    elems=st.integers(1, 13),
    in_place=st.booleans(),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=200, deadline=None)
def test_executor_matches_naive_snapshot_every_send_interpreter(
    staging, program, op, elems, in_place, seed
):
    validate_program(program)
    rng = np.random.default_rng(seed)
    size = elems * program.world if program.kind is Collective.REDUCE_SCATTER else elems
    inputs = [rng.standard_normal(size).astype(np.float32) for _ in range(program.world)]
    expected = naive_run(program, inputs, op)
    if in_place:
        inputs, out = _in_place_buffers(program.kind, inputs)
    else:
        out = None
    got = _poisoned_run(staging, compile_program(program), inputs, op, out=out)
    _assert_same(got, expected)  # bit-identical: same operand order


@pytest.mark.parametrize("kind", list(Collective))
def test_naive_interpreter_agrees_on_every_ring_kind(kind):
    rng = np.random.default_rng(5)
    inputs = [
        rng.standard_normal(15).astype(np.float32) for _ in range(5)
    ]
    program = ring_program(kind, 5, root=3)
    _assert_same(compile_program(program).run(inputs), naive_run(program, inputs, ReduceOp.SUM))


# ---------------------------------------------------------------------------
# receive buffers as working vectors
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("kind", list(Collective))
def test_out_buffers_are_written_in_place_and_returned(staging, kind):
    world, rng = 4, np.random.default_rng(1)
    inputs = _inputs(kind, world, 6, np.float32, rng)
    expected = reference_outputs(kind, inputs, root=2)
    out = [np.zeros(e.size, np.float32) for e in expected]
    got = _poisoned_run(staging, builtin_plan("ring", kind, world, 2), inputs, out=out)
    assert all(g is o for g, o in zip(got, out))
    _assert_same(out, expected)


@pytest.mark.parametrize(
    "kind", [Collective.ALL_REDUCE, Collective.BROADCAST, Collective.REDUCE]
)
@pytest.mark.parametrize("family", ["ring", "tree", "halving_doubling"])
def test_exact_in_place_is_byte_exact(kind, family):
    if family != "ring" and kind is not Collective.ALL_REDUCE:
        return
    world, rng = 4, np.random.default_rng(2)
    inputs = _inputs(kind, world, 9, np.int32, rng)
    expected = reference_outputs(kind, inputs, op=ReduceOp.PROD, root=1)
    bufs = [a.copy() for a in inputs]
    builtin_plan(family, kind, world, 1).run(bufs, ReduceOp.PROD, out=bufs)
    _assert_same(bufs, expected)


def test_run_rejects_bad_buffers():
    plan = builtin_plan("ring", Collective.ALL_REDUCE, 4)
    with pytest.raises(ValueError, match="4 input buffers"):
        plan.run([np.zeros(4)] * 3)
    with pytest.raises(ValueError, match="shape and dtype"):
        plan.run([np.zeros(4)] * 3 + [np.zeros(5)])
    with pytest.raises(ValueError, match="receive"):
        plan.run([np.zeros(4)] * 4, out=[np.zeros(3)] * 4)
    with pytest.raises(ValueError, match="receive"):
        plan.run([np.zeros(4)] * 4, out=[np.zeros(8)[::2]] * 4)
    with pytest.raises(ValueError, match="divisible"):
        builtin_plan("ring", Collective.REDUCE_SCATTER, 3).run([np.zeros(4)] * 3)
    with pytest.raises(ValueError, match="no all_gather program"):
        builtin_plan("tree", Collective.ALL_GATHER, 4)


def test_copy_between_unequal_chunks_is_rejected_at_resolve_time():
    program = make_program(
        "test:bad-copy", Collective.ALL_REDUCE,
        [[Instr(OpKind.COPY, 1, src_chunk=0)], []],
        num_chunks=2,
    )
    with pytest.raises(MalformedProgramError, match="copies chunk 0"):
        compile_program(program).run([np.zeros(3), np.zeros(3)])


# ---------------------------------------------------------------------------
# cache-blocked resolution: chains, alignment, tile-major order
# ---------------------------------------------------------------------------
#: float32 elements of one tile.
TILE = executor.TILE_BYTES // 4

_FAMILIES = ("ring", "tree", "halving_doubling")


def _widest(plan, elems, order=None):
    return max(dspan.stop - dspan.start for _, _, dspan, *_ in plan.records(elems, 4, order))


def _working_elems(kind, out, world):
    return out * world if kind in (Collective.ALL_GATHER, Collective.REDUCE_SCATTER) else out


class _InlineHelper:
    """A lane helper that applies the second lane at once, on the calling
    thread, before ``run`` applies the first: the lanes run sequentially
    in reverse lane order."""

    def __init__(self):
        self.lanes = 0

    def submit(self, fn, *args):
        self.lanes += 1
        future = Future()
        fn(*args)
        future.set_result(None)
        return future


def _lanes(plan, inputs, order=None):
    """The two lanes ``run`` would apply (None: one block, no lanes)."""
    total = inputs[0].size * (plan.world if plan.kind is Collective.ALL_GATHER else 1)
    tile = executor.TILE_BYTES // inputs[0].itemsize
    return executor._resolve(plan, total, plan._blocks(order), tile)[2]


def _assert_lanes_disjoint(plan, lanes, sends, out, order):
    """No byte any access of one lane touches is touched by the other
    lane, on the run's real arrays (an in-place receive buffer is its
    send buffer's memory)."""
    n, kind = plan.world, plan.kind
    if out is None:
        out_size = sends[0].size // n if kind is Collective.REDUCE_SCATTER else (
            sends[0].size * n if kind is Collective.ALL_GATHER else sends[0].size
        )
        out = [np.empty(out_size, sends[0].dtype) for _ in range(n)]
    accesses = [
        (lane, operand, span)
        for lane, records in enumerate(lanes)
        for record in records
        for operand, span in (record[1:3], record[3:5], record[5:7])
    ]
    pool = np.empty(max(span.stop for _, _, span in accesses), sends[0].dtype)
    ranks = range(n) if order is None else order
    arrays = [out[r].reshape(-1) for r in ranks] + [sends[r].reshape(-1) for r in ranks] + [pool]

    def extent(view):  # a contiguous 1-D slice
        return view.ctypes.data, view.ctypes.data + view.nbytes

    extents = sorted((*extent(arrays[operand][span]), lane) for lane, operand, span in accesses)
    reach = [0, 0]
    for lo, hi, lane in extents:
        assert lo >= reach[1 - lane], "the two lanes touch one byte"
        reach[lane] = max(reach[lane], hi)


def _matches_plan_order(staging, plan, inputs, op=ReduceOp.SUM, order=None, in_place=False):
    """The cache-blocked run on the reused poisoned ``staging`` against
    :func:`plan_order_run`, bit for bit (float32: any reordered reduction
    shows), out of place or in place; where resolution cut the blocks into
    two lanes, the lanes touch disjoint memory and running them
    sequentially, second lane first, gives the same bytes.  Returns the
    lanes."""
    def buffers():
        if in_place:
            return _in_place_buffers(plan.kind, inputs)
        return [a.copy() for a in inputs], None

    sends, out = buffers()
    want = plan_order_run(plan, sends, op, order=order, out=out)
    sends, out = buffers()
    _assert_same(_poisoned_run(staging, plan, sends, op, order=order, out=out), want)
    lanes = _lanes(plan, inputs, order)
    if lanes is not None:
        sends, out = buffers()
        _assert_lanes_disjoint(plan, lanes, sends, out, order)
        helper = _InlineHelper()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
            patch.setattr(Staging, "helper", lambda self: helper)
            _assert_same(_poisoned_run(staging, plan, sends, op, order=order, out=out), want)
        assert helper.lanes == 1
    return lanes


@pytest.mark.parametrize(
    "family, kind",
    [("ring", kind) for kind in Collective]
    + [(family, Collective.ALL_REDUCE) for family in _FAMILIES[1:]],
)
def test_every_builtin_plan_runs_tiled_as_in_plan_order(staging, monkeypatch, family, kind):
    """Every family x kind x world 2-8 x root, on a shuffled ring order
    (blocked kinds relabel their rank blocks), out of place and in place,
    with 16-element tiles: each chunk of ~50 uneven elements spans four."""
    monkeypatch.setattr(executor, "TILE_BYTES", 64)
    rng = np.random.default_rng(7)
    for world in range(2, 9):
        if family == "halving_doubling" and world & (world - 1):
            continue
        roots = range(world) if kind in (Collective.BROADCAST, Collective.REDUCE) else [0]
        for root in roots:
            plan = builtin_plan(family, kind, world, root)
            order = rng.permutation(world).tolist()
            elems = 48 * world + world // 2 + 1
            assert _widest(plan, _working_elems(kind, elems, world), order) <= 16
            size = elems * world if kind is Collective.REDUCE_SCATTER else elems
            inputs = [rng.standard_normal(size).astype(np.float32) for _ in range(world)]
            for in_place in ((False, True) if kind is not Collective.ALL_GATHER else (False,)):
                lanes = _matches_plan_order(staging, plan, inputs, order=order, in_place=in_place)
                assert lanes is not None and all(lanes)


@pytest.mark.parametrize(
    "elems",
    [4 * (TILE - 1), 4 * TILE, 4 * (TILE + 1), 4 * (3 * TILE + 5) - 3],
    ids=["below", "one", "one+1", "uneven"],
)
def test_real_tile_around_one_tile(elems):
    """A ring all-reduce of four chunks at the shipped tile: chunks of at
    most one tile resolve to the plan's own records, one element more
    splits every chain in two, and chunks differing by one element stay
    exact."""
    world, rng = 4, np.random.default_rng(elems)
    plan = builtin_plan("ring", Collective.ALL_REDUCE, world)
    records = plan.records(elems, 4)
    if elems <= world * TILE:
        assert len(records) == len(plan.ops)
    else:
        assert len(records) > len(plan.ops) and _widest(plan, elems) <= TILE
    inputs = [rng.standard_normal(elems).astype(np.float32) for _ in range(world)]
    _assert_same(plan.run(inputs), plan_order_run(plan, inputs))


@pytest.mark.parametrize("family", _FAMILIES)
def test_16_mib_allreduce_is_tiled_and_exact(family):
    world, rng = 8, np.random.default_rng(16)
    elems = (16 << 20) // 4
    plan = builtin_plan(family, Collective.ALL_REDUCE, world)
    order = rng.permutation(world).tolist()
    assert _widest(plan, elems, order) <= TILE
    inputs = [rng.standard_normal(elems).astype(np.float32) for _ in range(world)]
    out = [np.empty(elems, np.float32) for _ in range(world)]
    got = plan.run(inputs, order=order, out=out)
    _assert_same(got, plan_order_run(plan, inputs, order=order))


_HIERARCHICAL = hierarchical_allreduce_program([[0, 1, 2, 3], [4, 5, 6, 7]])


@given(
    program=st.one_of(random_programs(), st.just(_swap_program()), st.just(_HIERARCHICAL)),
    tile_bytes=st.sampled_from([4, 8, 12, 20]),
    op=st.sampled_from(list(ReduceOp)),
    elems=st.integers(1, 40),
    in_place=st.booleans(),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=200, deadline=None)
def test_synthesized_and_random_programs_run_tiled_as_in_plan_order(
    staging, program, tile_bytes, op, elems, in_place, seed
):
    validate_program(program)
    rng = np.random.default_rng(seed)
    size = elems * program.world if program.kind is Collective.REDUCE_SCATTER else elems
    inputs = [rng.standard_normal(size).astype(np.float32) for _ in range(program.world)]
    plan = compile_program(program)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(executor, "TILE_BYTES", tile_bytes)
        _matches_plan_order(staging, plan, inputs, op, in_place=in_place)


def test_in_place_send_and_receive_buffers_are_one_memory(staging, monkeypatch):
    """Rank 0's send buffer is read (step 1) between two records of
    another chain, the second of which copies into rank 0's receive
    buffer (step 2).  A copy never reads its ``target``, so with the
    copy's target pointed at its destination nothing but the alias rule
    ties the read to the write; run in place, the read must stay ahead."""
    monkeypatch.setattr(executor, "TILE_BYTES", 8)
    send = lambda peer, step: Instr(OpKind.SEND, 0, peer=peer, step=step)
    recv = lambda kind, peer, step: Instr(kind, 0, peer=peer, step=step)
    program = make_program(
        "test:alias", Collective.ALL_REDUCE,
        [
            [send(1, 1), recv(OpKind.RECV, 3, 2)],
            [recv(OpKind.RECV_REDUCE, 0, 1)],
            [send(3, 0)],
            [recv(OpKind.RECV_REDUCE, 2, 0), send(0, 2)],
        ],
        num_chunks=1,
    )
    compiled = compile_program(program)
    ops = tuple(op if op[0] else op[:2] + op[1:2] + op[3:] for op in compiled.ops)
    assert ops[2] == (False, 0, 0, 3, 0, 1, 0, 1)
    plan = ExecutionPlan(program, ops, compiled.hops, compiled.pool, 0)
    inputs = [np.arange(5, dtype=np.float32) + 10 * r for r in range(4)]
    _matches_plan_order(staging, plan, inputs, in_place=True)


def _wide_ring_allreduce():
    """A world-8 ring all-reduce whose chunks span two tiles each, and
    its float32 inputs."""
    world, elems = 8, 8 * 2 * TILE
    rng = np.random.default_rng(3)
    plan = builtin_plan("ring", Collective.ALL_REDUCE, world)
    return plan, [rng.standard_normal(elems).astype(np.float32) for _ in range(world)]


def test_the_lanes_split_the_bytes_evenly():
    plan, inputs = _wide_ring_allreduce()
    lanes = _lanes(plan, inputs)
    assert lanes is not None
    assert sum(map(len, lanes)) == len(plan.records(inputs[0].size, 4))
    assert len(lanes[0]) == len(lanes[1])  # 16 equal blocks: 8 chains x 2 tiles


def test_one_cpu_runs_one_lane_and_starts_no_thread(monkeypatch):
    """Where the affinity mask holds one CPU, a run that two CPUs would
    split applies every record on the calling thread; its records are the
    same either way.  Two CPUs start the staging buffer's one thread."""
    plan, inputs = _wide_ring_allreduce()
    assert _lanes(plan, inputs) is not None  # two CPUs would use lanes
    elems = inputs[0].size
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    before = set(threading.enumerate())
    staging = Staging()
    one = plan.run(inputs, staging=staging)
    records = plan.records(elems, 4)
    assert set(threading.enumerate()) <= before
    _assert_same(one, plan_order_run(plan, inputs))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert plan.records(elems, 4) == records
    _assert_same(plan.run(inputs, staging=staging), one)
    started = set(threading.enumerate()) - before
    assert [thread.name.split("_")[0] for thread in started] == ["executor-lane"]


def test_a_failing_run_raises_only_after_its_second_lane_stopped(monkeypatch):
    """A run into read-only receive buffers fails in both lanes; ``run``
    raises only once the helper's lane (slowed down here) is done, so no
    lane still holds a staging view when the caller sees the error."""
    plan, inputs = _wide_ring_allreduce()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    futures = []
    helper = Staging.helper

    class Slow:
        def __init__(self, staging):
            self.pool = helper(staging)

        def submit(self, fn, *args):
            def late():
                time.sleep(0.05)
                fn(*args)

            futures.append(self.pool.submit(late))
            return futures[-1]

    monkeypatch.setattr(Staging, "helper", lambda staging: Slow(staging))
    out = [np.empty_like(a) for a in inputs]
    for o in out:
        o.flags.writeable = False
    with pytest.raises(ValueError, match="read-only"):
        plan.run(inputs, out=out, staging=Staging())
    assert len(futures) == 1 and futures[0].done()


def test_concurrent_runs_on_their_own_staging_stay_exact(monkeypatch):
    """Three callers, each with its own staging buffer and so its own lane
    thread (six threads on fewer cores), switching every few
    microseconds: every run is byte-equal to plan order."""
    import sys

    monkeypatch.setattr(executor, "TILE_BYTES", 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    plan = builtin_plan("tree", Collective.ALL_REDUCE, 8)
    rng = np.random.default_rng(11)
    inputs = [rng.standard_normal(8 * 40 + 3).astype(np.float32) for _ in range(8)]
    want = plan_order_run(plan, inputs)
    assert _lanes(plan, inputs) is not None
    wrong = []

    def caller():
        staging = Staging()
        for _ in range(20):
            got = plan.run(inputs, staging=staging)
            if not all(np.array_equal(a, b) for a, b in zip(got, want)):
                wrong.append(got)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=caller) for _ in range(3)]
        for thread in callers:
            thread.start()
        for thread in callers:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in callers)
    assert wrong == []


def test_small_ring_allreduce_keeps_its_112_records():
    """64 KiB at world 8 is 8 KiB chunks, far below a tile: one numpy
    call per plan record, as before tiling (``plan.ops`` itself is held
    to ``golden_plan_ops.json`` above)."""
    plan = builtin_plan("ring", Collective.ALL_REDUCE, 8)
    assert len(plan.ops) == 112
    assert len(plan.records((64 << 10) // 4, 4)) == 112


def test_every_mixed_kinds_plan_resolves_tiled_at_16_mib():
    """Each built-in plan the ``mixed_kinds`` benchmark runs, and the
    two-level synthesized program, issues no numpy call wider than one
    tile at 16 MiB — trees at world 6 and 8 and the butterflies
    included, whose coalesced records overlap at different starts until
    aligned."""
    out = (16 << 20) // 4
    rng = np.random.default_rng(0)
    plans = [
        (builtin_plan(family, kind, world, world // 2), kind, world)
        for world in (4, 6, 8)
        for family in _FAMILIES
        for kind in Collective
        if family == "ring" or (kind is Collective.ALL_REDUCE and world & (world - 1) == 0)
        or (family == "tree" and kind is Collective.ALL_REDUCE)
    ]
    plans.append((compile_program(_HIERARCHICAL), Collective.ALL_REDUCE, 8))
    assert len(plans) == 5 * 3 + 3 + 2 + 1
    for plan, kind, world in plans:
        order = rng.permutation(world).tolist()
        assert _widest(plan, _working_elems(kind, out, world), order) <= TILE, plan.name


# ---------------------------------------------------------------------------
# program shape (cost-model views)
# ---------------------------------------------------------------------------
def test_hierarchical_step_count_beats_flat_ring():
    g, m = 2, 4
    groups = [list(range(j * m, (j + 1) * m)) for j in range(g)]
    program = hierarchical_allreduce_program(groups)
    assert program.num_steps == 2 * m + 2 * g - 4  # 8
    flat = ring_program(Collective.ALL_REDUCE, g * m)
    assert program.num_steps < flat.num_steps  # 8 < 14


def test_hierarchical_halves_wan_bytes_vs_locality_ring():
    # 2 regions of 4: per directed region pair, the two-level schedule
    # ships ~S while the best flat ring ships ~2S
    out = 1 << 20
    groups = [[0, 1, 2, 3], [4, 5, 6, 7]]
    region = lambda r: r // 4

    def wan_bytes(program):
        return sum(
            nbytes
            for (src, dst), nbytes in program.pair_traffic(out).items()
            if region(src) != region(dst)
        )

    hier = hierarchical_allreduce_program(groups)
    flat = ring_program(Collective.ALL_REDUCE, 8)  # identity = locality
    assert wan_bytes(hier) == pytest.approx(2 * out, rel=0.01)  # S each way
    assert wan_bytes(flat) == pytest.approx(2 * 2 * out * 7 / 8, rel=0.01)
    assert wan_bytes(hier) < 0.6 * wan_bytes(flat)
    # the compiled plan moves exactly the bytes the program's view predicts
    assert compile_program(hier).edge_bytes(out // 4, 4) == {
        pair: int(nbytes) for pair, nbytes in hier.pair_traffic(out).items()
    }


def test_hierarchical_rejects_unequal_groups():
    with pytest.raises(MalformedProgramError, match="equally sized"):
        hierarchical_allreduce_program([[0, 1, 2], [3, 4]])


def test_hierarchical_rejects_non_partition():
    with pytest.raises(MalformedProgramError, match="partition"):
        hierarchical_allreduce_program([[0, 1], [1, 2]])


def test_generators_reject_bad_orders_and_worlds():
    with pytest.raises(MalformedProgramError, match="permutation"):
        ring_program(Collective.ALL_REDUCE, 3, order=(0, 0, 1))
    with pytest.raises(MalformedProgramError, match="power-of-two"):
        halving_doubling_program(6)
    with pytest.raises(ValueError):
        double_tree_program(1)
