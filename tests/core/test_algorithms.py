"""Pluggable algorithm registry tests (the §4.2 extension point)."""

import importlib.util
import pathlib

import numpy as np
import pytest

from repro.cluster.specs import testbed_cluster
from repro.collectives import Instr, OpKind, compile_program, make_program
from repro.collectives.types import Collective
from repro.core.algorithms import (
    AlgorithmContext,
    CollectiveAlgorithm,
    DoubleTreeAlgorithm,
    RingAlgorithm,
    get_algorithm,
    register_algorithm,
    registered_algorithms,
    unregister_algorithm,
)
from repro.core.deployment import MccsDeployment
from repro.core.strategy import CollectiveStrategy
from repro.collectives.ring import RingSchedule
from repro.netsim.errors import MccsError
from repro.netsim.units import MB


def ctx(kind=Collective.ALL_REDUCE, world=4, rank=0, channels=1, order=None, out_bytes=1000, root=0):
    return AlgorithmContext(
        kind=kind,
        out_bytes=out_bytes,
        world=world,
        rank=rank,
        root=root,
        ring_order=tuple(order) if order else tuple(range(world)),
        channels=channels,
    )


def test_builtins_registered():
    assert {"ring", "tree"} <= set(registered_algorithms())


def test_unknown_algorithm_raises():
    with pytest.raises(MccsError):
        get_algorithm("quantum")


def test_duplicate_registration_rejected():
    with pytest.raises(MccsError):
        register_algorithm(RingAlgorithm())


def test_ring_rank_transfers_follow_ring_order():
    algo = RingAlgorithm()
    transfers = algo.rank_transfers(ctx(order=[2, 0, 1], rank=0))
    assert len(transfers) == 1
    assert transfers[0].dst_rank == 1  # 0 sits after 2, before 1
    assert transfers[0].nbytes == pytest.approx(1500.0)


def test_ring_broadcast_root_sends_nothing_upstream():
    algo = RingAlgorithm()
    # edge into the root carries nothing -> the rank before root is idle
    transfers = algo.rank_transfers(
        ctx(kind=Collective.BROADCAST, rank=3, root=0)
    )
    assert transfers == []


def test_ring_channels_multiply_transfers():
    algo = RingAlgorithm()
    transfers = algo.rank_transfers(ctx(channels=2))
    assert len(transfers) == 2
    assert {t.channel for t in transfers} == {0, 1}
    assert sum(t.nbytes for t in transfers) == pytest.approx(1500.0)


def test_tree_transfers_touch_parents_and_children():
    algo = DoubleTreeAlgorithm()
    transfers = algo.rank_transfers(ctx(world=4, rank=0))
    # rank 0 is root of tree 1 (2 children) and a node in tree 2
    assert transfers
    total = sum(t.nbytes for t in transfers)
    assert total > 0


def test_tree_total_bytes_match_traffic_model():
    algo = DoubleTreeAlgorithm()
    world, size = 6, 1200
    total = 0.0
    for rank in range(world):
        total += sum(
            t.nbytes for t in algo.rank_transfers(ctx(world=world, rank=rank, out_bytes=size))
        )
    # each of 2 trees has (world-1) edges carrying size/2 up AND down
    assert total == pytest.approx(2 * (world - 1) * size / 2 * 2)


def test_tree_falls_back_to_ring_for_allgather():
    ring = RingAlgorithm()
    tree = DoubleTreeAlgorithm()
    c = ctx(kind=Collective.ALL_GATHER, rank=2)
    assert tree.rank_transfers(c) == ring.rank_transfers(c)


def test_tree_steps_logarithmic():
    tree = DoubleTreeAlgorithm()
    ring = RingAlgorithm()
    assert tree.steps(ctx(world=32)) < ring.steps(ctx(world=32))
    # other kinds fall back to the ring's schedule, step count included
    gather = ctx(kind=Collective.ALL_GATHER, world=32)
    assert tree.steps(gather) == ring.steps(gather) == 31


def test_mccs_collective_under_tree_strategy():
    """End to end: a communicator whose provider picked trees."""
    cluster = testbed_cluster()
    deployment = MccsDeployment(cluster)
    gpus = [cluster.hosts[h].gpus[0] for h in range(4)]
    strategy = CollectiveStrategy(
        ring=RingSchedule((0, 1, 2, 3)), channels=1, algorithm="tree"
    )
    comm = deployment.create_communicator("A", gpus, strategy=strategy)
    client = deployment.connect("A")
    handle = client.adopt_communicator(comm.comm_id)
    sends = [client.alloc(g, 128) for g in gpus]
    recvs = [client.alloc(g, 128) for g in gpus]
    for i, b in enumerate(sends):
        b.view(np.float32)[:] = float(i + 1)
    op = client.all_reduce(handle, 128, send=sends, recv=recvs)
    deployment.run()
    assert op.completed
    assert all(np.allclose(r.view(np.float32), 10.0) for r in recvs)


def test_reconfigure_between_algorithm_families():
    """The provider can switch a live communicator from ring to tree."""
    cluster = testbed_cluster()
    deployment = MccsDeployment(cluster)
    gpus = [cluster.hosts[h].gpus[0] for h in range(4)]
    comm = deployment.create_communicator("A", gpus)
    client = deployment.connect("A")
    handle = client.adopt_communicator(comm.comm_id)
    client.all_reduce(handle, 8 * MB)
    deployment.reconfigure(comm.comm_id, algorithm="tree")
    op = client.all_reduce(handle, 8 * MB)
    deployment.run()
    assert op.completed
    assert comm.strategy.algorithm == "tree"
    assert comm.inconsistent_collectives == 0


class StarReduce(CollectiveAlgorithm):
    """A proprietary provider algorithm: reduce to the root and fan back
    out (toy).  Naming the chunk program is the whole job — the bytes,
    the flows and the step latency are all views of its compiled plan."""

    name = "star-test"

    def plan(self, c):
        if c.kind is not Collective.ALL_REDUCE:
            return get_algorithm("ring").plan(c)
        ranks = [[] for _ in range(c.world)]
        for r in range(c.world):
            if r != c.root:
                ranks[r] += [Instr(OpKind.SEND, 0, peer=c.root, step=0),
                             Instr(OpKind.RECV, 0, peer=c.root, step=1)]
                ranks[c.root].append(Instr(OpKind.RECV_REDUCE, 0, peer=r, step=0))
        ranks[c.root] += [
            Instr(OpKind.SEND, 0, peer=r, step=1)
            for r in range(c.world) if r != c.root
        ]
        star = make_program("star", c.kind, ranks, num_chunks=1, root=c.root)
        return compile_program(star), None


@pytest.fixture
def star():
    algorithm = StarReduce()
    register_algorithm(algorithm)
    yield algorithm
    unregister_algorithm(algorithm.name)


def test_custom_provider_algorithm_end_to_end(star):
    """Installed without touching service code, by writing ``plan``."""
    assert star.steps(ctx()) == 2
    assert [t.dst_rank for t in star.rank_transfers(ctx(rank=0))] == [1, 2, 3]
    assert [t.dst_rank for t in star.rank_transfers(ctx(rank=2))] == [0]
    cluster = testbed_cluster()
    deployment = MccsDeployment(cluster)
    gpus = [cluster.hosts[h].gpus[0] for h in range(4)]
    strategy = CollectiveStrategy(
        ring=RingSchedule((0, 1, 2, 3)), algorithm="star-test"
    )
    comm = deployment.create_communicator("A", gpus, strategy=strategy)
    client = deployment.connect("A")
    handle = client.adopt_communicator(comm.comm_id)
    op = client.all_reduce(handle, 4 * MB)
    deployment.run()
    assert op.completed
    assert sum(1 for _ in op.instance.rank_versions) == 4
    # and the program it names moves the bytes, through the shared path
    sends = [client.alloc(gpu, 64) for gpu in gpus]
    recvs = [client.alloc(gpu, 64) for gpu in gpus]
    for rank, buf in enumerate(sends):
        buf.view(np.float32)[:] = rank + 1
    client.all_reduce(handle, 64, send=sends, recv=recvs)
    deployment.run()
    for buf in recvs:
        assert np.array_equal(buf.view(np.float32), np.full(16, 10.0, np.float32))


def _example_algorithm():
    """``examples/custom_algorithm.py``'s class, loaded from the file."""
    path = pathlib.Path(__file__).parents[2] / "examples" / "custom_algorithm.py"
    spec = importlib.util.spec_from_file_location("custom_algorithm_example", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.HierarchicalAllReduce()


@pytest.mark.parametrize("kind", [Collective.ALL_REDUCE, Collective.BROADCAST])
@pytest.mark.parametrize(
    "name", ["ring", "tree", "halving_doubling", "star-test", "hierarchical", "synth"]
)
def test_simulated_bytes_per_pair_are_the_plans(name, kind, star):
    """The two clocks describe one schedule: on the testbed, the bytes the
    simulator carries per directed rank pair equal ``plan.edge_bytes`` —
    for every built-in, a synthesized program, and the two provider
    algorithms that only write ``plan()`` (the example's hand-written
    flows used to model a different schedule than its program)."""
    from repro.synth import hierarchical_allreduce_program, temporarily_registered

    cluster = testbed_cluster()
    deployment = MccsDeployment(cluster)
    gpus = [cluster.hosts[h].gpus[0] for h in range(4)]  # one per host
    rank_of_nic = {
        cluster.nic_of_channel(gpu, channel): rank
        for rank, gpu in enumerate(gpus)
        for channel in range(2)
    }
    carried = {}
    inject = cluster.sim.add_flows

    def spy(batch, **kwargs):
        flows = inject(batch, **kwargs)
        for flow in flows:
            dst = rank_of_nic[cluster.topology.path_nodes(flow.path)[-1]]
            pair = (flow.tags["rank"], dst)
            carried[pair] = carried.get(pair, 0) + flow.size
        return flows

    cluster.sim.add_flows = spy
    order, channels = (2, 0, 3, 1), 2
    root = 1 if kind is Collective.BROADCAST else 0
    elems, itemsize = 3 * 2**17, 4  # chunk-divisible for every program here
    program = hierarchical_allreduce_program(
        [[0, 2], [1, 3]], channels=2, name="synth:test-carried/w4"
    )
    with temporarily_registered(program):
        if name == "hierarchical":
            register_algorithm(_example_algorithm(), replace=True)
        algorithm = get_algorithm(program.name if name == "synth" else name)
        try:
            strategy = CollectiveStrategy(
                ring=RingSchedule(order), channels=channels, algorithm=algorithm.name
            )
            comm = deployment.create_communicator("A", gpus, strategy=strategy)
            client = deployment.connect("A")
            handle = client.adopt_communicator(comm.comm_id)
            issue = getattr(client, kind.value)
            if kind is Collective.BROADCAST:
                op = issue(handle, elems * itemsize, root=root)
            else:
                op = issue(handle, elems * itemsize)
            deployment.run()
            assert op.completed
            plan, plan_order = algorithm.plan(
                AlgorithmContext(kind, elems * itemsize, 4, 0, root, order, channels)
            )
        finally:
            if name == "hierarchical":
                unregister_algorithm("hierarchical")
    assert carried == plan.edge_bytes(elems, itemsize, plan_order)
