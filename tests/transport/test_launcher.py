"""Flow launcher tests: collectives become flows with the right sizes."""

import pytest

from repro.baselines.nccl import NcclCommunicator
from repro.cluster.specs import testbed_cluster
from repro.collectives.cost_model import LatencyModel
from repro.collectives.ring import identity_ring
from repro.collectives.tree import double_binary_trees
from repro.collectives.types import Collective
from repro.core.algorithms import AlgorithmContext, get_algorithm
from repro.netsim.errors import CommunicatorError, LinkDownError
from repro.netsim.routing import EcmpSelector
from repro.transport.connections import ConnectionTable
from repro.transport.launcher import FlowTransport

ZERO_LATENCY = LatencyModel(base=0.0, per_step=0.0, datapath=0.0)


def launch(transport, *, kind, out_bytes, gpus, table, channels=1, root=0,
           algorithm="ring", **kwargs):
    """One ``FlowTransport.launch`` of the registry ``algorithm``'s
    transfers and step count over the identity ring."""
    algo = get_algorithm(algorithm)
    world = len(gpus)
    ctx = AlgorithmContext(kind, out_bytes, world, 0, root, tuple(range(world)), channels)
    transfers = [
        (gpus[rank], gpus[t.dst_rank], t.channel, t.nbytes)
        for rank, t in algo.transfers(ctx)
    ]
    return transport.launch(
        kind=kind, out_bytes=out_bytes, transfers=transfers,
        steps=algo.steps(ctx), table=table, **kwargs,
    )


@pytest.fixture
def env():
    cl = testbed_cluster()
    gpus = [cl.hosts[h].gpus[0] for h in range(4)]
    table = ConnectionTable(cl, "t")
    sched = identity_ring(4)
    edges = [(gpus[a], gpus[b]) for a, b in sched.edges()]
    table.establish(edges, channels=1, selector=EcmpSelector())
    return cl, gpus, table, sched


def test_ring_launch_creates_one_flow_per_edge(env):
    cl, gpus, table, sched = env
    transport = FlowTransport(cl, ZERO_LATENCY)
    handle = launch(
        transport, kind=Collective.ALL_REDUCE, out_bytes=1000, gpus=gpus, table=table
    )
    cl.sim.run(until=0.0)
    assert len(handle.flows) == 4
    for flow in handle.flows:
        assert flow.size == pytest.approx(2 * 3 / 4 * 1000)


def test_completion_fires_when_slowest_flow_finishes(env):
    cl, gpus, table, sched = env
    transport = FlowTransport(cl, ZERO_LATENCY)
    seen = []
    handle = launch(
        transport, kind=Collective.ALL_GATHER, out_bytes=8 * 1024**2, gpus=gpus,
        table=table, on_complete=lambda h, t: seen.append(t),
    )
    cl.sim.run()
    assert handle.end_time is not None and handle.error is None
    assert seen == [handle.end_time]
    assert handle.end_time == max(f.end_time for f in handle.flows)


def test_fixed_latency_delays_injection(env):
    cl, gpus, table, sched = env
    latency = LatencyModel(base=1e-3, per_step=0.0, datapath=0.0)
    transport = FlowTransport(cl, latency)
    handle = launch(
        transport, kind=Collective.ALL_REDUCE, out_bytes=1000, gpus=gpus, table=table
    )
    cl.sim.run()
    assert handle.start_time == pytest.approx(1e-3)
    assert handle.duration() >= 1e-3


def test_broadcast_skips_root_edge(env):
    cl, gpus, table, sched = env
    transport = FlowTransport(cl, ZERO_LATENCY)
    handle = launch(
        transport, kind=Collective.BROADCAST, out_bytes=1000, gpus=gpus, table=table,
        root=0,
    )
    cl.sim.run()
    assert len(handle.flows) == 3


def test_channels_split_bytes(env):
    cl, gpus, table, sched = env
    edges = [(gpus[a], gpus[b]) for a, b in sched.edges()]
    table2 = ConnectionTable(cl, "t2")
    table2.establish(edges, channels=2, selector=EcmpSelector())
    transport = FlowTransport(cl, ZERO_LATENCY)
    handle = launch(
        transport, kind=Collective.ALL_REDUCE, out_bytes=1000, gpus=gpus,
        table=table2, channels=2,
    )
    cl.sim.run()
    assert len(handle.flows) == 8
    # per channel: 4 edges x 2*(3/4)*500 bytes -> 3000; two channels -> 6000
    assert sum(f.size for f in handle.flows) == pytest.approx(6000.0)


def test_double_tree_launch(env):
    cl, gpus, table, sched = env
    trees = double_binary_trees(range(4))
    tree_table = ConnectionTable(cl, "tree")
    edges = []
    for tree in trees:
        for child, parent in tree.edges():
            edges.append((gpus[child], gpus[parent]))
            edges.append((gpus[parent], gpus[child]))
    tree_table.establish(edges, channels=1, selector=EcmpSelector())
    transport = FlowTransport(cl, ZERO_LATENCY)
    handle = launch(
        transport, kind=Collective.ALL_REDUCE, out_bytes=1000, gpus=gpus,
        table=tree_table, algorithm="tree",
    )
    cl.sim.run()
    assert handle.end_time is not None and handle.error is None
    assert sum(f.size for f in handle.flows) == pytest.approx(2 * 1000 * 3)
    # one flow per (tree, directed edge): the trees are never merged
    assert len(handle.flows) == 2 * 2 * 3


def test_invalid_channels_rejected(env):
    # the check moved with the option: the launcher takes finished
    # transfers, the library that owns the channel count validates it
    cl, gpus, table, sched = env
    with pytest.raises(CommunicatorError, match="channels"):
        NcclCommunicator(cl, gpus, channels=0)



def test_one_failed_flow_settles_the_launch(env):
    """A flow killed by a fault fails the collective: the survivors are
    cancelled, the handle carries the error, completion never fires."""
    cl, gpus, table, sched = env
    transport = FlowTransport(cl, ZERO_LATENCY)
    completed = []
    handle = launch(
        transport, kind=Collective.ALL_GATHER, out_bytes=8 * 1024**2, gpus=gpus,
        table=table, on_complete=lambda h, t: completed.append(t),
    )
    cl.sim.run(until=1e-4)
    killed = cl.sim.fail_link(handle.flows[0].path[0])
    cl.sim.run()
    assert 0 < len(killed) < len(handle.flows)
    assert isinstance(handle.error, LinkDownError)
    assert handle.end_time == pytest.approx(1e-4)
    assert cl.sim.flows_cancelled == len(handle.flows) - len(killed)
    assert completed == [] and cl.sim.active_flows() == []
