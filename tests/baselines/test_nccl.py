"""NCCL-like baseline library tests."""

import numpy as np
import pytest

from repro.baselines.nccl import NcclCommunicator, default_channels
from repro.cluster.specs import testbed_cluster
from repro.netsim.errors import CommunicatorError
from repro.netsim.units import MB


@pytest.fixture
def cl():
    return testbed_cluster()


@pytest.fixture
def four(cl):
    return [cl.hosts[h].gpus[0] for h in range(4)]


@pytest.fixture
def eight(cl):
    return [g for h in range(4) for g in cl.hosts[h].gpus]


def test_default_channels_match_nics_used(cl, four, eight):
    assert default_channels(four) == 1
    assert default_channels(eight) == 2


def test_ring_follows_user_rank_order(cl):
    """NCCL wires the inter-host ring exactly as the user ordered ranks."""
    gpus = [cl.hosts[h].gpus[0] for h in (0, 2, 1, 3)]
    comm = NcclCommunicator(cl, gpus)
    assert comm.schedule.order == (0, 1, 2, 3)  # rank order, i.e. hosts 0,2,1,3
    hosts = [comm.gpus[r].host_id for r in comm.schedule.order]
    assert hosts == [0, 2, 1, 3]


def test_or_variant_overrides_ring(cl, four):
    comm = NcclCommunicator(cl, four, ring_order=[3, 2, 1, 0])
    assert comm.schedule.order == (3, 2, 1, 0)


def test_connections_established_at_init(cl, four):
    comm = NcclCommunicator(cl, four)
    assert len(comm.connections) == 4


def test_optimal_ring_4gpu_hits_analytic_bandwidth(cl, four):
    """The no-collision closed form: 512 MB AllReduce at 4.17 GB/s."""
    comm = NcclCommunicator(cl, four)  # identity order == optimal here
    op = comm.all_reduce(512 * MB)
    cl.sim.run()
    algbw = 512 * MB / op.duration() / 1e9
    assert algbw == pytest.approx(6.25 / 1.5, rel=0.02)


def test_bad_ring_is_slower(cl):
    gpus = [cl.hosts[h].gpus[0] for h in (0, 2, 1, 3)]
    comm = NcclCommunicator(cl, gpus, ecmp_seed=1)
    op = comm.all_reduce(512 * MB)
    cl.sim.run()
    algbw = 512 * MB / op.duration() / 1e9
    assert algbw < 3.0  # vs 4.17 optimal


def test_collectives_serialize_per_communicator(cl, four):
    comm = NcclCommunicator(cl, four)
    a = comm.all_reduce(64 * MB)
    b = comm.all_reduce(64 * MB)
    cl.sim.run()
    assert b.handle.start_time >= a.end_time - 1e-9
    assert b.duration() > a.duration()  # b waited for a


def test_data_plane_round_trip(cl, four):
    comm = NcclCommunicator(cl, four)
    data = [np.full(16, float(i + 1)) for i in range(4)]
    op = comm.all_reduce(data[0].nbytes, data=data)
    cl.sim.run()
    assert op.outputs is not None
    assert all(np.allclose(o, 10.0) for o in op.outputs)


def test_wide_collectives_share_one_staging_buffer(cl, four, monkeypatch):
    """Collectives wide enough to run in two lanes take the scratch and
    the lane thread the communicator keeps, not a fresh pair each."""
    import os

    from repro.collectives.executor import TILE_BYTES, Staging

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    helper, used = Staging.helper, []

    def recorded(staging):
        used.append(staging)
        return helper(staging)

    monkeypatch.setattr(Staging, "helper", recorded)
    comm = NcclCommunicator(cl, four)
    data = [np.full(TILE_BYTES, float(i + 1)) for i in range(4)]  # 2-tile chunks
    ops = [comm.all_reduce(data[0].nbytes, data=data) for _ in range(3)]
    cl.sim.run()
    assert all(np.array_equal(o, np.full_like(o, 10.0)) for op in ops for o in op.outputs)
    assert len(used) == 3 and len({id(staging) for staging in used}) == 1


def test_all_gather_data(cl, four):
    comm = NcclCommunicator(cl, four)
    data = [np.full(4, float(i)) for i in range(4)]
    op = comm.all_gather(4 * data[0].nbytes, data=data)
    cl.sim.run()
    assert np.allclose(op.outputs[0], np.concatenate(data))


def test_broadcast_and_reduce(cl, four):
    comm = NcclCommunicator(cl, four)
    data = [np.full(4, float(i)) for i in range(4)]
    op = comm.broadcast(data[0].nbytes, root=2, data=data)
    cl.sim.run()
    assert all(np.allclose(o, 2.0) for o in op.outputs)
    op2 = comm.reduce(data[0].nbytes, root=1, data=data)
    cl.sim.run()
    assert np.allclose(op2.outputs[1], 6.0)


def test_tree_algorithm(cl, four):
    comm = NcclCommunicator(cl, four, algorithm="tree")
    data = [np.full(8, 1.0) for _ in range(4)]
    op = comm.all_reduce(data[0].nbytes, data=data)
    cl.sim.run()
    assert op.completed
    assert all(np.allclose(o, 4.0) for o in op.outputs)


def test_unknown_algorithm_rejected(cl, four):
    with pytest.raises(CommunicatorError):
        NcclCommunicator(cl, four, algorithm="mesh")


def test_destroyed_communicator_rejects_collectives(cl, four):
    comm = NcclCommunicator(cl, four)
    comm.destroy()
    with pytest.raises(CommunicatorError):
        comm.all_reduce(1024)


def test_zero_size_rejected(cl, four):
    comm = NcclCommunicator(cl, four)
    with pytest.raises(CommunicatorError):
        comm.all_reduce(0)


def test_ecmp_seed_changes_outcomes_somewhere(cl):
    """Across many seeds the bad ring sees both collision and luck."""
    values = set()
    for seed in range(12):
        cluster = testbed_cluster()
        gpus = [cluster.hosts[h].gpus[0] for h in (0, 2, 1, 3)]
        comm = NcclCommunicator(cluster, gpus, ecmp_seed=seed)
        op = comm.all_reduce(512 * MB)
        cluster.sim.run()
        values.add(round(512 * MB / op.duration() / 1e9, 2))
    assert len(values) >= 2


def test_stream_integration(cl, four):
    comm = NcclCommunicator(cl, four)
    stream = four[0].create_stream()
    stream.compute(5e-3)
    op = comm.all_reduce(8 * MB, stream=stream)
    cl.sim.run()
    assert op.handle.start_time >= 5e-3


def test_auto_algorithm_static_selection(cl, four):
    """'auto' mirrors classic libraries: tree for small latency-bound
    messages, ring for large bandwidth-bound ones (§2.1)."""
    from repro.collectives.types import Collective

    comm = NcclCommunicator(cl, four, algorithm="auto")
    assert comm._algorithm_for(Collective.ALL_REDUCE, 32 * 1024) == "tree"
    assert comm._algorithm_for(Collective.ALL_REDUCE, 512 * MB) == "ring"
    assert comm._algorithm_for(Collective.ALL_GATHER, 32 * 1024) == "ring"


def test_auto_algorithm_runs_both_paths(cl, four):
    comm = NcclCommunicator(cl, four, algorithm="auto")
    small = comm.all_reduce(32 * 1024)
    big = comm.all_reduce(512 * MB)
    cl.sim.run()
    assert small.completed and big.completed
    # the tree path is latency-cheaper for the tiny op
    assert small.duration() < big.duration()


def test_auto_selection_is_network_agnostic(cl, four):
    """The choice depends only on static factors — it does not react to a
    congested network, which is the paper's point."""
    from repro.collectives.types import Collective
    from repro.netsim.units import gbps

    comm = NcclCommunicator(cl, four, algorithm="auto")
    before = comm._algorithm_for(Collective.ALL_REDUCE, 8 * MB)
    # crush the fabric: auto does not notice
    for link_id in list(cl.topology.links):
        if "spine" in link_id:
            cl.sim.set_link_capacity(link_id, gbps(1))
    after = comm._algorithm_for(Collective.ALL_REDUCE, 8 * MB)
    assert before == after
