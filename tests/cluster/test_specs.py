"""Cluster assembly and GPU/NIC affinity tests."""

from repro.cluster.specs import (
    custom_cluster,
    large_cluster,
    ring_cluster,
    testbed_cluster,
)


def test_testbed_cluster_shape():
    cl = testbed_cluster()
    assert cl.num_hosts == 4
    assert cl.num_gpus == 8
    assert all(len(h.gpus) == 2 and len(h.nics) == 2 for h in cl.hosts)


def test_gpu_global_ids_follow_layout():
    cl = testbed_cluster()
    for host in cl.hosts:
        for gpu in host.gpus:
            assert gpu.global_id == host.host_id * 2 + gpu.local_index
            assert cl.gpu(gpu.global_id) is gpu


def test_rack_mapping():
    cl = testbed_cluster()
    assert cl.rack_of(cl.gpu(0)) == 0
    assert cl.rack_of(cl.gpu(5)) == 1


def test_nic_affinity():
    # GPU k sends channel 0 through its affine NIC k.
    cl = testbed_cluster()
    assert cl.nic_of_channel(cl.hosts[1].gpus[1], 0) == "h1.nic1"
    assert cl.nic_of_channel(cl.hosts[1].gpus[0], 0) == "h1.nic0"


def test_nic_of_channel_rotates():
    cl = testbed_cluster()
    gpu = cl.hosts[0].gpus[1]
    assert cl.nic_of_channel(gpu, 0) == "h0.nic1"
    assert cl.nic_of_channel(gpu, 1) == "h0.nic0"
    assert cl.nic_of_channel(gpu, 2) == "h0.nic1"


def test_hosts_share_one_simulator():
    cl = testbed_cluster()
    sims = {gpu.sim for gpu in cl.gpus}
    assert sims == {cl.sim}


def test_large_cluster_scale():
    cl = large_cluster()
    assert cl.num_gpus == 768
    assert cl.num_hosts == 96
    assert len(cl.hosts[0].nics) == 8


def test_ring_cluster():
    cl = ring_cluster()
    assert cl.num_hosts == 4
    assert cl.num_gpus == 8
    assert "sw0" in cl.topology.nodes


def test_custom_cluster_nic_default():
    cl = custom_cluster(
        num_spines=2, num_leaves=2, hosts_per_leaf=1, gpus_per_host=4
    )
    assert len(cl.hosts[0].nics) == 4
    assert cl.num_gpus == 8


def test_interference_penalty_threads_through():
    cl = testbed_cluster(interference_penalty=0.25)
    assert cl.sim.interference_penalty == 0.25


def test_gpus_of_host():
    cl = testbed_cluster()
    assert [g.global_id for g in cl.hosts[2].gpus] == [4, 5]
