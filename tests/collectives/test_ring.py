"""Ring schedules, the ring programs' correctness through the executor,
and the ring's flow/step views against the closed-form traffic model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.collectives import builtin_plan
from repro.collectives.ring import RingSchedule, identity_ring
from repro.collectives.types import Collective, ReduceOp, reduce_many
from repro.core.algorithms import AlgorithmContext, get_algorithm

from .oracles import edge_traffic, steps_for


# -- schedules ----------------------------------------------------------------
def test_schedule_requires_permutation():
    with pytest.raises(ValueError):
        RingSchedule((0, 0, 1))
    with pytest.raises(ValueError):
        RingSchedule((0, 2))


def test_schedule_requires_two_ranks():
    with pytest.raises(ValueError):
        RingSchedule((0,))


def test_edges_wrap_around():
    sched = RingSchedule((2, 0, 1))
    assert sched.edges() == [(2, 0), (0, 1), (1, 2)]


def test_position_of():
    sched = RingSchedule((2, 0, 1))
    assert sched.position_of(0) == 1
    assert sched.position_of(2) == 0


def test_reversed_schedule():
    sched = RingSchedule((0, 1, 2, 3))
    assert sched.reversed().order == (3, 2, 1, 0)


def test_identity_ring():
    assert identity_ring(4).order == (0, 1, 2, 3)


# -- traffic model: the plan's views against the closed forms -------------------
def ring_view(kind, out_bytes, world, root_position=0):
    """(bytes per ring edge, steps) as the product derives them: the
    registry ring's transfers and step count, identity order, one channel."""
    ring = get_algorithm("ring")
    per_edge = []
    for pos in range(world):
        ctx = AlgorithmContext(
            kind, out_bytes, world, pos, root_position, tuple(range(world)), 1
        )
        transfers = ring.rank_transfers(ctx)
        assert all(t.dst_rank == (pos + 1) % world for t in transfers)
        per_edge.append(sum(t.nbytes for t in transfers))
    return per_edge, ring.steps(ctx)


def test_allreduce_edge_traffic():
    per_edge = edge_traffic(Collective.ALL_REDUCE, 1000, 4)
    assert per_edge == [1500.0] * 4  # 2*(n-1)/n * S
    assert ring_view(Collective.ALL_REDUCE, 1000, 4)[0] == per_edge


def test_allgather_edge_traffic():
    per_edge = edge_traffic(Collective.ALL_GATHER, 1000, 4)
    assert per_edge == [750.0] * 4
    assert ring_view(Collective.ALL_GATHER, 1000, 4)[0] == per_edge


def test_reduce_scatter_edge_traffic():
    per_edge = edge_traffic(Collective.REDUCE_SCATTER, 250, 4)
    assert per_edge == [750.0] * 4  # (n-1) * per-rank output
    assert ring_view(Collective.REDUCE_SCATTER, 250, 4)[0] == per_edge


def test_broadcast_skips_edge_into_root():
    per_edge = edge_traffic(Collective.BROADCAST, 100, 4, root_position=1)
    assert per_edge == [0.0, 100.0, 100.0, 100.0]
    assert ring_view(Collective.BROADCAST, 100, 4, root_position=1)[0] == per_edge


def test_reduce_skips_edge_out_of_root():
    per_edge = edge_traffic(Collective.REDUCE, 100, 4, root_position=1)
    assert per_edge == [100.0, 0.0, 100.0, 100.0]
    assert ring_view(Collective.REDUCE, 100, 4, root_position=1)[0] == per_edge


def test_steps():
    assert steps_for(Collective.ALL_REDUCE, 4) == 6
    assert steps_for(Collective.ALL_GATHER, 4) == 3
    assert steps_for(Collective.BROADCAST, 4) == 3
    for kind in Collective:
        assert ring_view(kind, 1000, 4)[1] == steps_for(kind, 4)
        assert builtin_plan("ring", kind, 4).steps == steps_for(kind, 4)


# -- data plane: ring programs through the one executor ------------------------
def run_ring(kind, order, inputs, op=ReduceOp.SUM, root=0):
    """What the registry's ring algorithm does: the position-space plan,
    relabelled through ``order``."""
    plan = builtin_plan("ring", kind, len(order), list(order).index(root))
    return plan.run(inputs, op, order=order)


@st.composite
def world_and_order(draw):
    world = draw(st.integers(2, 6))
    order = draw(st.permutations(range(world)))
    return world, tuple(order)


@given(world_and_order(), st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_allreduce_matches_numpy_sum(wo, seed):
    world, order = wo
    rng = np.random.default_rng(seed)
    inputs = [rng.standard_normal(24) for _ in range(world)]
    outputs = run_ring(Collective.ALL_REDUCE, order, inputs)
    expected = np.sum(inputs, axis=0)
    for out in outputs:
        assert np.allclose(out, expected)


@given(world_and_order(), st.sampled_from(list(ReduceOp)))
@settings(max_examples=40, deadline=None)
def test_allreduce_supports_all_ops(wo, op):
    world, order = wo
    rng = np.random.default_rng(7)
    inputs = [rng.uniform(0.5, 2.0, size=12) for _ in range(world)]
    outputs = run_ring(Collective.ALL_REDUCE, order, inputs, op)
    expected = reduce_many(op, inputs)
    for out in outputs:
        assert np.allclose(out, expected)


@given(world_and_order())
@settings(max_examples=40, deadline=None)
def test_allgather_concatenates_by_rank(wo):
    world, order = wo
    inputs = [np.full(5, float(r)) for r in range(world)]
    outputs = run_ring(Collective.ALL_GATHER, order, inputs)
    expected = np.concatenate(inputs)
    for out in outputs:
        assert np.array_equal(out, expected)


@given(world_and_order())
@settings(max_examples=40, deadline=None)
def test_reduce_scatter_gives_each_rank_its_block(wo):
    world, order = wo
    rng = np.random.default_rng(3)
    inputs = [rng.standard_normal(world * 4) for _ in range(world)]
    outputs = run_ring(Collective.REDUCE_SCATTER, order, inputs)
    total = np.sum(inputs, axis=0)
    for rank in range(world):
        assert np.allclose(outputs[rank], total[rank * 4 : (rank + 1) * 4])


@given(world_and_order(), st.integers(0, 5))
@settings(max_examples=40, deadline=None)
def test_broadcast_distributes_root(wo, root_seed):
    world, order = wo
    root = root_seed % world
    inputs = [np.full(4, float(r + 1)) for r in range(world)]
    outputs = run_ring(Collective.BROADCAST, order, inputs, root=root)
    for out in outputs:
        assert np.array_equal(out, inputs[root])


@given(world_and_order(), st.integers(0, 5))
@settings(max_examples=40, deadline=None)
def test_reduce_collects_at_root(wo, root_seed):
    world, order = wo
    root = root_seed % world
    rng = np.random.default_rng(11)
    inputs = [rng.standard_normal(6) for _ in range(world)]
    outputs = run_ring(Collective.REDUCE, order, inputs, root=root)
    assert np.allclose(outputs[root], np.sum(inputs, axis=0))
    for rank in range(world):
        if rank != root:  # non-roots keep their input
            assert np.array_equal(outputs[rank], inputs[rank])


# -- cross-check: the plan's bytes == traffic model ------------------------------
@pytest.mark.parametrize("kind", list(Collective))
@pytest.mark.parametrize("world", [2, 3, 4, 5])
@pytest.mark.parametrize("order_seed", [None, 1])
def test_plan_edge_bytes_match_traffic_model(kind, world, order_seed):
    """Per directed ring edge, the compiled plan resolved for this size
    moves exactly what the fluid model's closed form predicts — for every
    kind, root position and ring order (sizes divisible by world)."""
    order = list(range(world))
    if order_seed is not None:
        np.random.default_rng(order_seed).shuffle(order)
    elems, itemsize, root_pos = 4 * world, 8, world - 1
    if kind is Collective.ALL_GATHER:
        out_bytes = elems * itemsize  # working vector == output
    elif kind is Collective.REDUCE_SCATTER:
        out_bytes = elems * itemsize // world  # working vector == input
    else:
        out_bytes = elems * itemsize
    plan = builtin_plan("ring", kind, world, root_pos)
    predicted = edge_traffic(kind, out_bytes, world, root_pos)
    expected = {
        (order[p], order[(p + 1) % world]): int(nbytes)
        for p, nbytes in enumerate(predicted)
        if nbytes
    }
    assert plan.edge_bytes(elems, itemsize, order) == expected
    # ... and so do the flows the simulator launches for it
    ctx = AlgorithmContext(kind, out_bytes, world, 0, order[root_pos], tuple(order), 1)
    flows = {
        (rank, t.dst_rank): t.nbytes for rank, t in get_algorithm("ring").transfers(ctx)
    }
    assert flows == expected


@pytest.mark.parametrize("elems", [13, 3])
def test_plan_edge_bytes_total_survives_uneven_chunks(elems):
    """Chunk rounding redistributes bytes within the ring (and buffers
    smaller than the chunk count leave chunks empty) but preserves the
    total the model predicts."""
    world, itemsize = 5, 4
    plan = builtin_plan("ring", Collective.ALL_REDUCE, world)
    moved = plan.edge_bytes(elems, itemsize)
    assert set(moved) == {(p, (p + 1) % world) for p in range(world)}
    predicted = edge_traffic(Collective.ALL_REDUCE, elems * itemsize, world)
    assert sum(moved.values()) == pytest.approx(sum(predicted))


def test_executor_requires_one_input_per_rank():
    with pytest.raises(ValueError):
        run_ring(Collective.ALL_REDUCE, (0, 1, 2), [np.zeros(4)])


def test_executor_requires_uniform_shapes():
    with pytest.raises(ValueError):
        run_ring(Collective.ALL_REDUCE, (0, 1), [np.zeros(4), np.zeros(5)])


def test_reduce_scatter_requires_divisible_size():
    with pytest.raises(ValueError):
        run_ring(Collective.REDUCE_SCATTER, (0, 1, 2), [np.zeros(4) for _ in range(3)])
