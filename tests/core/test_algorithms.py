"""Pluggable algorithm registry tests (the §4.2 extension point)."""

import numpy as np
import pytest

from repro.cluster.specs import testbed_cluster
from repro.collectives import Instr, OpKind, compile_program, make_program
from repro.collectives.types import Collective, ReduceOp
from repro.core.algorithms import (
    AlgorithmContext,
    CollectiveAlgorithm,
    DoubleTreeAlgorithm,
    RankTransfer,
    RingAlgorithm,
    get_algorithm,
    register_algorithm,
    registered_algorithms,
)
from repro.core.controller import CentralManager
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
    assert tree.steps(Collective.ALL_REDUCE, 64) < ring.steps(Collective.ALL_REDUCE, 64)


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


def test_custom_provider_algorithm_end_to_end():
    """A proprietary provider algorithm: direct scatter to the root's
    neighbours (toy), installed without touching service code."""

    class StarReduce(CollectiveAlgorithm):
        name = "star-test"

        def rank_transfers(self, c):
            if c.kind is not Collective.ALL_REDUCE:
                return RingAlgorithm().rank_transfers(c)
            if c.rank == c.root:
                return [
                    RankTransfer(dst_rank=r, nbytes=c.out_bytes / c.channels, channel=ch)
                    for r in range(c.world)
                    if r != c.root
                    for ch in range(c.channels)
                ]
            return [
                RankTransfer(dst_rank=c.root, nbytes=c.out_bytes / c.channels, channel=ch)
                for ch in range(c.channels)
            ]

        def steps(self, kind, world):
            return 2

        def plan(self, c):
            # the bytes move the way the flows do: name the chunk program,
            # the shared run_data path executes it
            if c.kind is not Collective.ALL_REDUCE:
                return RingAlgorithm().plan(c)
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

    register_algorithm(StarReduce(), replace=True)
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
    # star: 2*(world-1) flows total (in + out of root)
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
