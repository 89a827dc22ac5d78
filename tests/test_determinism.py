"""A run depends on its inputs, not on what the process did before it.

Paths are pinned when a connection is established by hashing its
discriminator under ECMP (§4.2), and the discriminator holds the
communicator's id.  Every id is issued by the object that owns it — the
cluster, the deployment — so a seeded two-tenant run after unrelated work
in the same process draws the same paths, finishes at the same times and
exports the same trace as the same run before it.
"""

from repro.baselines.nccl import NcclCommunicator
from repro.cluster.specs import testbed_cluster
from repro.core.deployment import MccsDeployment
from repro.netsim.units import MB


def unrelated_work():
    """A deployment and an NCCL communicator nobody looks at again."""
    cluster = testbed_cluster()
    deployment = MccsDeployment(cluster)
    client = deployment.connect("noise")
    for _ in range(3):
        client.all_reduce(client.create_communicator(list(cluster.gpus)), 1 * MB)
    NcclCommunicator(cluster, list(cluster.gpus)).all_reduce(1 * MB)
    deployment.run()


def two_tenants(seed):
    """An ECMP-routed NCCL ring beside an MCCS communicator left to ECMP
    (no flow-assignment policy): both tenants' paths are hash draws."""
    cluster = testbed_cluster()
    nccl = NcclCommunicator(
        cluster, [host.gpus[0] for host in cluster.hosts], ecmp_seed=seed
    )
    deployment = MccsDeployment(cluster, ecmp_seed=seed)
    client = deployment.connect("tenant")
    comm = client.create_communicator([host.gpus[1] for host in cluster.hosts])
    ops = [nccl.all_reduce(32 * MB) for _ in range(3)]
    handles = [client.all_reduce(comm, 32 * MB) for _ in range(3)]
    deployment.run()
    assert all(h.completed for h in handles) and all(op.completed for op in ops)
    times = [op.end_time for op in ops] + [h.end_time for h in handles]
    return times, deployment.telemetry().to_chrome_trace()


def test_same_seeded_run_twice_in_one_process():
    unrelated_work()
    first = two_tenants(seed=0)
    unrelated_work()
    assert two_tenants(seed=0) == first
