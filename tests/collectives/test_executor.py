"""The one executor: generators, compile-time analysis, in-place runs.

Every program family is held byte-exact against the numpy oracle, the
compiled plan's per-edge bytes against the closed-form traffic models,
and the executor's read-at-the-receive shortcut against a naive
snapshot-every-send interpreter kept here as the executable IR
semantics.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.collectives import (
    Instr,
    OpKind,
    builtin_plan,
    compile_program,
    double_tree_program,
    halving_doubling_program,
    hierarchical_allreduce_program,
    make_program,
    ring_program,
    run_program,
    toposort,
)
from repro.collectives.ir import chunk_spans
from repro.collectives.reference import reference_outputs
from repro.collectives.types import Collective, ReduceOp
from repro.errors import MalformedProgramError
from repro.synth import validate_program


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
    for rank, idx in toposort(program):
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
    outputs = run_program(ring_program(kind, world, root=root), inputs, op)
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
    direct = run_program(ring_program(kind, world, order=order, root=root), floats)
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
        outputs = run_program(program, inputs, op)
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
    outputs = run_program(hierarchical_allreduce_program(groups), inputs, op)
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


@st.composite
def random_programs(draw):
    """A random valid-by-construction all-reduce: chunks reduced along
    random rank chains, then broadcast along random trees, with random
    step packing, channels and the odd local COPY."""
    world = draw(st.integers(2, 5))
    num_chunks = draw(st.integers(1, 4))
    channels = draw(st.integers(1, 2))
    programs = [[] for _ in range(world)]
    step = 0
    for chunk in range(num_chunks):
        chain = draw(st.permutations(range(world)))
        for a, b in zip(chain, chain[1:]):
            channel = draw(st.integers(0, channels - 1))
            programs[a].append(Instr(OpKind.SEND, chunk, peer=b, channel=channel, step=step))
            programs[b].append(Instr(OpKind.RECV_REDUCE, chunk, peer=a, channel=channel, step=step))
            step += draw(st.integers(0, 1))
        step += 1
        holders = [chain[-1]]
        for rank in draw(st.permutations(chain[:-1])):
            src = draw(st.sampled_from(holders))
            step += draw(st.integers(0, 1))
            programs[src].append(Instr(OpKind.SEND, chunk, peer=rank, step=step))
            programs[rank].append(Instr(OpKind.RECV, chunk, peer=src, step=step))
            holders.append(rank)
        if draw(st.booleans()):
            programs[chain[-1]].append(
                Instr(OpKind.COPY, chunk, step=step, src_chunk=chunk)
            )
        step += 1
    return make_program(
        "test:random", Collective.ALL_REDUCE, programs,
        num_chunks=num_chunks, channels=channels,
    )


@given(
    program=st.one_of(random_programs(), st.just(_swap_program())),
    op=st.sampled_from(list(ReduceOp)),
    elems=st.integers(1, 13),
    in_place=st.booleans(),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=120, deadline=None)
def test_executor_matches_naive_snapshot_every_send_interpreter(
    program, op, elems, in_place, seed
):
    validate_program(program)
    rng = np.random.default_rng(seed)
    inputs = [rng.standard_normal(elems).astype(np.float32) for _ in range(program.world)]
    expected = naive_run(program, inputs, op)
    out = [a.copy() for a in inputs] if in_place else None
    got = compile_program(program).run(out if in_place else inputs, op, out=out)
    _assert_same(got, expected)  # bit-identical: same operand order


@pytest.mark.parametrize("kind", list(Collective))
def test_naive_interpreter_agrees_on_every_ring_kind(kind):
    rng = np.random.default_rng(5)
    inputs = [
        rng.standard_normal(15).astype(np.float32) for _ in range(5)
    ]
    program = ring_program(kind, 5, root=3)
    _assert_same(run_program(program, inputs), naive_run(program, inputs, ReduceOp.SUM))


# ---------------------------------------------------------------------------
# receive buffers as working vectors
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("kind", list(Collective))
def test_out_buffers_are_written_in_place_and_returned(kind):
    world, rng = 4, np.random.default_rng(1)
    inputs = _inputs(kind, world, 6, np.float32, rng)
    expected = reference_outputs(kind, inputs, root=2)
    out = [np.zeros(e.size, np.float32) for e in expected]
    got = builtin_plan("ring", kind, world, 2).run(inputs, out=out)
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
        run_program(program, [np.zeros(3), np.zeros(3)])


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
