"""Flows, step counts and cost-model traffic are views of the compiled
plan — proved here against the closed forms they replaced.

``oracles.py`` holds what used to be product code, verbatim: the seven
closed-form traffic/step functions, the per-family ``rank_transfers`` /
``steps`` bodies, ``SynthAlgorithm``'s aggregation and ``launch_ring``'s
private compiler.  The grids below hold the new views
(``CollectiveAlgorithm.rank_transfers`` / ``.steps`` reading
``ExecutionPlan.sends`` / ``.steps``) to them with ``==`` — bit for bit,
element for element, in order.  The one licence: a double-tree rank lists
its flows in program order (up, then down) where the parent listed them
tree by tree, so the tree compares as a multiset of (peer, channel,
bytes); every ``sim_digest`` and figure golden is unmoved by it.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.nccl import NcclCommunicator
from repro.cluster.specs import testbed_cluster
from repro.collectives import (
    builtin_plan,
    compile_program,
    double_tree_program,
    halving_doubling_program,
    hierarchical_allreduce_program,
    ring_program,
)
from repro.collectives.ir import Instr, OpKind, make_program
from repro.collectives.ring import RingSchedule
from repro.collectives.types import Collective
from repro.core.algorithms import AlgorithmContext, get_algorithm
from repro.synth import SynthAlgorithm

from .oracles import BUILTIN_ORACLES, compile_ring, steps_for, synth_rank_transfers

KIB, MIB = 1024, 1024 * 1024
#: chunk-divisible, 3 * 2**19 (the mixed_kinds size), large, and one that
#: no world divides.
SIZES = (64 * KIB, 3 * 2**19, 16 * MIB, 4_000_012)
CHANNELS = (1, 2, 4, 8)
ROOTED = (Collective.BROADCAST, Collective.REDUCE)


def orders(world):
    """Identity and one seeded shuffle."""
    shuffled = list(range(world))
    random.Random(world).shuffle(shuffled)
    return tuple(range(world)), tuple(shuffled)


def multiset(transfers):
    return sorted((t.dst_rank, t.channel, t.nbytes) for t in transfers)


# ---------------------------------------------------------------------------
# (a) the grid: built-in families
# ---------------------------------------------------------------------------
def check_family(name, kinds, worlds, *, ordered):
    """``name``'s views against its oracle over kinds x worlds x root
    {0, n-1} x identity/shuffled order x channels {1,2,4,8} x SIZES.
    Small worlds and three large ones take the whole channels x sizes
    product (a rotating rank at each point, every rank at one of them);
    the worlds in between take a rotating diagonal of it."""
    algorithm = get_algorithm(name)
    oracle_transfers, oracle_steps = BUILTIN_ORACLES[name]
    mismatches = []
    tick = 0
    for kind in kinds:
        for world in worlds:
            thorough = world <= 9 or world in (16, 32, 33)
            for order in orders(world):
                for root in (0, world - 1) if kind in ROOTED else (0,):
                    for i, channels in enumerate(CHANNELS):
                        for j, size in enumerate(SIZES):
                            tick += 1
                            if not thorough and (i + j + tick // 16) % 4:
                                continue
                            everyone = thorough and (channels, size) == (2, SIZES[1])
                            for rank in range(world) if everyone else (tick % world,):
                                ctx = AlgorithmContext(
                                    kind, size, world, rank, root, order, channels
                                )
                                got = algorithm.rank_transfers(ctx)
                                want = oracle_transfers(ctx)
                                same = got == want if ordered else (
                                    multiset(got) == multiset(want)
                                )
                                if not same or algorithm.steps(ctx) != oracle_steps(
                                    kind, world
                                ):
                                    mismatches.append(ctx)
    assert mismatches[:5] == []
    assert tick > 0


def test_ring_views_equal_the_closed_forms():
    rotations = [Collective.ALL_GATHER, Collective.REDUCE_SCATTER]
    others = [kind for kind in Collective if kind not in rotations]
    check_family("ring", others, range(2, 34), ordered=True)
    # one rotation of rank blocks each: half of AllReduce's schedule, and
    # compiling every world's plan is what this test spends its time on
    check_family("ring", rotations, [*range(2, 18), 32, 33], ordered=True)


def test_halving_doubling_views_equal_the_closed_forms():
    # non-powers of two exercise the fallback, stated once in plan()
    check_family(
        "halving_doubling", [Collective.ALL_REDUCE], range(2, 34), ordered=True
    )


def test_tree_views_equal_the_closed_forms():
    check_family("tree", [Collective.ALL_REDUCE], range(2, 34), ordered=False)


@pytest.mark.parametrize("name", ["tree", "halving_doubling"])
def test_fallback_kinds_are_the_rings_flows_in_order(name):
    kinds = [k for k in Collective if k is not Collective.ALL_REDUCE]
    check_family(name, kinds, range(2, 10), ordered=True)


def test_reduce_scatter_stripes_exactly_at_odd_channel_counts():
    """The closed form multiplies (n-1) * (S/c); so does the view (it
    counts a ReduceScatter's chunks per rank block, not per working
    vector), so not even the last ulp moves at c in {3,5,6,7,12}."""
    ring = get_algorithm("ring")
    oracle = BUILTIN_ORACLES["ring"][0]
    for world in range(2, 34):
        for channels in (3, 5, 6, 7, 12):
            for size in SIZES + (1_000_003,):
                ctx = AlgorithmContext(
                    Collective.REDUCE_SCATTER, size, world, world // 2, 0,
                    tuple(range(world)), channels,
                )
                assert ring.rank_transfers(ctx) == oracle(ctx)


# ---------------------------------------------------------------------------
# (a) the grid: synthesized programs (the as-tagged rule)
# ---------------------------------------------------------------------------
def test_synthesized_views_equal_the_parent_aggregation():
    programs = [
        ring_program(kind, world, channels=ir_channels, root=root)
        for kind in Collective
        for world in (2, 3, 4, 5, 8, 12)
        for ir_channels in (1, 2, 4)
        for root in ((0, world - 1) if kind in ROOTED else (0,))
    ]
    programs.append(
        hierarchical_allreduce_program([[0, 1, 2, 3], [4, 5, 6, 7]], channels=2)
    )
    programs.append(hierarchical_allreduce_program([[0, 3], [2, 5], [4, 1]]))
    programs.append(ring_program(Collective.ALL_REDUCE, 33, channels=4))
    for program in programs:
        algorithm = SynthAlgorithm(program)
        world = program.world
        order = orders(world)[1]  # ignored: the program is in rank space
        for size in SIZES:
            for rank in range(world):
                ctx = AlgorithmContext(
                    program.kind, size, world, rank, program.root, order, 2
                )
                assert algorithm.rank_transfers(ctx) == synth_rank_transfers(
                    program, ctx
                ), (program.name, ctx)
            assert algorithm.steps(ctx) == program.num_steps


# ---------------------------------------------------------------------------
# (b) property: the as-tagged rule conserves bytes per directed pair
# ---------------------------------------------------------------------------
@st.composite
def tagged_programs(draw):
    channels = draw(st.integers(1, 4))
    if draw(st.booleans()):
        world = draw(st.integers(2, 9))
        order = draw(st.permutations(range(world)))
        kind = draw(st.sampled_from(list(Collective)))
        root = draw(st.integers(0, world - 1))
        return ring_program(kind, world, order=order, channels=channels, root=root)
    groups, members = draw(st.sampled_from([(1, 2), (2, 2), (2, 3), (3, 2), (2, 4), (4, 2)]))
    ranks = draw(st.permutations(range(groups * members)))
    grouping = [ranks[g * members:(g + 1) * members] for g in range(groups)]
    return hierarchical_allreduce_program(grouping, channels=channels)


@given(tagged_programs(), st.integers(1, 64))
@settings(max_examples=60, deadline=None)
def test_tagged_transfers_sum_to_pair_traffic_and_edge_bytes(program, scale):
    """At chunk-divisible sizes: sum of the base-rule transfers per directed
    pair == ``Program.pair_traffic`` == ``plan.edge_bytes``."""
    algorithm = SynthAlgorithm(program)
    world, itemsize = program.world, 4
    elems = program.num_chunks * scale  # of the working vector
    total = elems * itemsize
    out_bytes = total // world if program.kind is Collective.REDUCE_SCATTER else total
    summed = {}
    for rank in range(world):
        ctx = AlgorithmContext(
            program.kind, out_bytes, world, rank, program.root, tuple(range(world)), 1
        )
        for t in algorithm.rank_transfers(ctx):
            assert t.channel < program.channels
            summed[(rank, t.dst_rank)] = summed.get((rank, t.dst_rank), 0) + t.nbytes
    assert summed == program.pair_traffic(out_bytes)
    assert summed == algorithm.plan(ctx)[0].edge_bytes(elems, itemsize)


# ---------------------------------------------------------------------------
# satellite: a rooted fallback cannot mix two schedules
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("channels", [1, 2])
def test_rooted_fallback_takes_the_rings_steps_and_flows(channels):
    """A one-step star Broadcast registered for root 0, asked to broadcast
    from root 1: the parent launched the ring's flows after the *star's*
    one step of latency (its ``steps(kind, world)`` never saw the root).
    Steps and flows now come off the same ``plan(ctx)`` resolution."""
    world = 4
    ranks = [[Instr(OpKind.SEND, 0, peer=r) for r in range(1, world)]]
    ranks += [[Instr(OpKind.RECV, 0, peer=0)] for _ in range(1, world)]
    star = make_program("synth:test-star", Collective.BROADCAST, ranks, num_chunks=1)
    algorithm = SynthAlgorithm(star)
    ring = get_algorithm("ring")

    def ctx(root, rank):
        return AlgorithmContext(
            Collective.BROADCAST, 64 * KIB, world, rank, root, (2, 0, 3, 1), channels
        )

    assert algorithm.steps(ctx(0, 0)) == 1
    assert [t.dst_rank for t in algorithm.rank_transfers(ctx(0, 0))] == [1, 2, 3]
    assert algorithm.steps(ctx(1, 0)) == world - 1 == steps_for(Collective.BROADCAST, world)
    for rank in range(world):
        flows = algorithm.rank_transfers(ctx(1, rank))
        assert flows == ring.rank_transfers(ctx(1, rank))
        assert flows == BUILTIN_ORACLES["ring"][0](ctx(1, rank))
    assert algorithm.plan(ctx(1, 0)) == ring.plan(ctx(1, 0))


# ---------------------------------------------------------------------------
# satellite: built-in plans are compiled once, whatever the channel count
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("family", ["ring", "tree", "halving_doubling"])
def test_builtin_plan_is_shared_across_channel_counts(family):
    world = 8
    kinds = list(Collective) if family == "ring" else [Collective.ALL_REDUCE]
    algorithm = get_algorithm(family)
    for kind in kinds:
        plans = {
            id(algorithm.plan(
                AlgorithmContext(kind, MIB, world, 0, 3, tuple(range(world)), channels)
            )[0])
            for channels in CHANNELS
        }
        assert len(plans) == 1
        plan = builtin_plan(family, kind, world, 3)
        assert id(plan) in plans
        assert plan.striped
        # ... and it is the plan the parent compiled per channel count
        # (channel tags never reached ``ops``).
        for channels in (1, 2, 3, 4):
            if family == "ring":
                program = ring_program(kind, world, channels=channels, root=3)
            elif family == "tree":
                program = double_tree_program(world, channels=channels)
            else:
                program = halving_doubling_program(world, channels=channels)
            compiled = compile_program(program)
            assert (compiled.ops, compiled.hops, compiled.pool) == (plan.ops, plan.hops, plan.pool)
            assert not compiled.striped


def test_tree_plan_keeps_one_lane_per_tree():
    """The two trees share directed rank pairs; merging them per peer
    moved simulated AllReduce time by -12..+15 % on the testbed."""
    for world in (2, 8, 16):
        sends = builtin_plan("tree", Collective.ALL_REDUCE, world).sends
        lanes = {(src, dst): set() for src in range(world) for dst, _, _ in sends[src]}
        for src in range(world):
            for dst, lane, chunks in sends[src]:
                assert chunks == (lane,)  # tree t carries vector half t
                lanes[(src, dst)].add(lane)
        assert any(len(both) == 2 for both in lanes.values())


# ---------------------------------------------------------------------------
# the NCCL baseline builds its launches from the same registry views
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("kind", list(Collective))
@pytest.mark.parametrize("order", [None, (3, 1, 0, 2)])
def test_nccl_ring_launch_is_launch_rings_compile_ring(kind, order):
    """Same flows, same sizes, same (channel-major) order as the private
    compiler ``FlowTransport.launch_ring`` carried."""
    cluster = testbed_cluster()
    gpus = [cluster.hosts[h].gpus[0] for h in range(4)]
    comm = NcclCommunicator(cluster, gpus, channels=2, ring_order=order)
    root = 2 if kind in ROOTED else 0
    issue = getattr(comm, kind.value)
    op = issue(4_000_012, root) if kind in ROOTED else issue(4_000_012)
    cluster.sim.run()
    assert op.completed
    schedule = RingSchedule(order) if order else RingSchedule((0, 1, 2, 3))
    expected = [
        (nbytes, tuple(comm.connections.connection(gpus[src], gpus[dst], channel).path), channel)
        for src, dst, channel, nbytes in compile_ring(kind, 4_000_012, schedule, 2, root)
    ]
    assert [(f.size, f.path, f.channel) for f in op.handle.flows] == expected
