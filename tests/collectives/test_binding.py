"""A bound run replays exactly what an unbound run computes.

``ExecutionPlan.bind`` resolves a run's numpy calls once and
``BoundRun.apply`` replays them; ``run`` is ``bind(...).apply()``.  The
oracle here is the executor's run before binding existed, kept verbatim
as :func:`sliced_run`: every resolved record sliced as it is applied,
one lane, a fresh pool.  A bound run applied twice — its staging
poisoned and, for an in-place run, its buffers refilled in between —
must be bit-equal to it for every built-in family and the hierarchical
synthesized program, every kind, worlds 2-8, random ring orders, exact
in-place aliasing and two lanes.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.collectives import (
    Staging,
    builtin_plan,
    compile_program,
    hierarchical_allreduce_program,
)
from repro.collectives import executor
from repro.collectives.types import Collective, ReduceOp

#: Kinds whose receive buffer may *be* the send buffer (equal sizes).
IN_PLACE = (Collective.ALL_REDUCE, Collective.BROADCAST, Collective.REDUCE)

SYNTH = {
    world: compile_program(hierarchical_allreduce_program(groups))
    for world, groups in ((4, [[0, 1], [2, 3]]), (8, [[0, 1, 2, 3], [4, 5, 6, 7]]))
}


def sliced_run(plan, inputs, op, order, out):
    """The unbound run: prologue, every record sliced as it is applied
    (in resolved order, one lane), epilogue."""
    n, kind = plan.world, plan.kind
    size = total = inputs[0].size
    if kind is Collective.ALL_GATHER:
        total = size * n
    ranks = range(n) if order is None else order
    send = [inputs[r].reshape(-1) for r in ranks]
    recv = [out[r].reshape(-1) for r in ranks]
    if kind is Collective.ALL_GATHER:
        for r, w, s in zip(ranks, recv, send):
            w[r * size : (r + 1) * size] = s
    elif kind is Collective.BROADCAST:
        np.copyto(recv[plan.root], send[plan.root])
    records, slot, _ = executor._resolve(
        plan, total, plan._blocks(order), executor.TILE_BYTES // inputs[0].itemsize
    )
    arrays = recv + send + [np.full(plan.pool * slot, np.nan, inputs[0].dtype)]
    for reduce, dst, dspan, target, tspan, src, sspan in records:
        if reduce:
            op.ufunc(arrays[target][tspan], arrays[src][sspan], out=arrays[dst][dspan])
        else:
            arrays[dst][dspan] = arrays[src][sspan]
    if kind is Collective.REDUCE:
        for p, (o, s) in enumerate(zip(recv, send)):
            if p != plan.root:
                o[:] = s
    return out


@st.composite
def cases(draw):
    """(plan, ring order or None)."""
    family = draw(st.sampled_from(["ring", "tree", "halving_doubling", "synth"]))
    if family == "synth":
        return draw(st.sampled_from(sorted(SYNTH.items())))[1], None
    if family == "ring":
        kind = draw(st.sampled_from(list(Collective)))
        world = draw(st.integers(2, 8))
    else:
        kind = Collective.ALL_REDUCE
        world = draw(st.sampled_from([2, 4, 8] if family == "halving_doubling" else range(2, 9)))
    plan = builtin_plan(family, kind, world, draw(st.integers(0, world - 1)))
    return plan, draw(st.permutations(range(world)))


def _bits(arrays):
    return [np.ascontiguousarray(a).reshape(-1).view(np.uint8) for a in arrays]


def _assert_bit_equal(got, want):
    assert len(got) == len(want)
    for a, b in zip(_bits(got), _bits(want)):
        np.testing.assert_array_equal(a, b)


@given(
    case=cases(),
    elems=st.integers(1, 40),
    op=st.sampled_from(list(ReduceOp)),
    in_place=st.booleans(),
    lanes=st.sampled_from([1, 2]),
    tile_bytes=st.sampled_from([8, 20, executor.TILE_BYTES]),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=200, deadline=None)
def test_a_bound_run_applied_twice_is_bit_equal_to_a_sliced_run(
    case, elems, op, in_place, lanes, tile_bytes, seed
):
    plan, order = case
    world, kind = plan.world, plan.kind
    rng = np.random.default_rng(seed)
    size = elems * world if kind is Collective.REDUCE_SCATTER else elems
    out_size = {Collective.ALL_GATHER: elems * world}.get(kind, elems)
    originals = [rng.standard_normal(size).astype(np.float32) for _ in range(world)]
    in_place = in_place and kind in IN_PLACE
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(executor, "TILE_BYTES", tile_bytes)
        patch.setattr(os, "sched_getaffinity", lambda pid: set(range(lanes)))
        fresh = [a.copy() for a in originals]
        want = sliced_run(
            plan, fresh, op, order,
            fresh if in_place else [np.zeros(out_size, np.float32) for _ in range(world)],
        )
        inputs = [a.copy() for a in originals]
        out = inputs if in_place else [np.zeros(out_size, np.float32) for _ in range(world)]
        staging = Staging()
        bound = plan.bind(inputs, op, order, out, staging)
        for _ in range(2):
            for buffer, original in zip(inputs, originals):
                buffer[:] = original  # an in-place apply overwrote them
            for o in out if not in_place else ():
                o.fill(np.nan)
            if staging.nbytes:
                (pool,) = staging.arrays(1, staging.nbytes // 4, np.dtype(np.float32))
                pool.fill(np.nan)  # a replay must not read last apply's scratch
            got = bound.apply()
            assert all(g is o for g, o in zip(got, out))
            _assert_bit_equal(got, want)
            if not in_place:
                _assert_bit_equal(inputs, originals)  # send buffers only read
        total = out_size if kind is Collective.ALL_GATHER else size
        split = executor._resolve(plan, total, plan._blocks(order), tile_bytes // 4)[2]
        assert len(bound._calls) == (2 if lanes == 2 and split is not None else 1)


def test_an_unkept_run_binds_and_applies_once():
    """``run`` is ``bind(...).apply()``: same outputs as a kept bound run."""
    plan = builtin_plan("ring", Collective.ALL_REDUCE, 4)
    rng = np.random.default_rng(7)
    inputs = [rng.standard_normal(9).astype(np.float32) for _ in range(4)]
    bound = plan.bind(inputs, ReduceOp.SUM, [2, 0, 3, 1], None, None)
    once = plan.run(inputs, ReduceOp.SUM, order=[2, 0, 3, 1])
    _assert_bit_equal(bound.apply(), once)
    _assert_bit_equal(bound.apply(), once)


def test_release_drops_the_calls_and_the_next_apply_resolves_them():
    plan = builtin_plan("ring", Collective.REDUCE_SCATTER, 4)
    inputs = [np.arange(8, dtype=np.float32) + r for r in range(4)]
    staging = Staging()
    bound = plan.bind(inputs, ReduceOp.SUM, None, None, staging)
    first = [a.copy() for a in bound.apply()]
    calls = bound._calls
    assert calls is not None and staging.nbytes > 0
    staging.arrays(1, staging.nbytes + 1, np.dtype(np.uint8))  # grows: releases
    assert bound._calls is None
    _assert_bit_equal(bound.apply(), first)
    assert bound._calls is not None and bound._calls is not calls
