"""Property-based verification of the Figure 4 barrier protocol.

Hypothesis drives randomized schedules of collectives interleaved with
reconfiguration requests under arbitrary per-rank delivery delays, and
asserts the protocol's safety/liveness properties: with the barrier, no
collective ever runs with mixed strategy versions, everything completes,
and sequence numbers stay in lockstep.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.specs import testbed_cluster
from repro.core.deployment import MccsDeployment
from repro.netsim.units import MB


@st.composite
def schedule(draw):
    """A random program: phases of collectives separated by reconfigs."""
    phases = draw(st.integers(1, 3))
    program = []
    for _ in range(phases):
        program.append(
            {
                "collectives": draw(st.integers(0, 4)),
                "delays": [
                    draw(st.floats(0.0, 0.02)) for _ in range(4)
                ],
                "gap": draw(st.floats(0.0, 0.01)),
            }
        )
    tail = draw(st.integers(1, 3))
    return program, tail


@given(schedule())
@settings(max_examples=25, deadline=None)
def test_barrier_never_allows_mixed_versions(program_and_tail):
    program, tail = program_and_tail
    cluster = testbed_cluster()
    deployment = MccsDeployment(cluster, strict_consistency=True)
    gpus = [cluster.hosts[h].gpus[0] for h in range(4)]
    comm = deployment.create_communicator("app", gpus)
    client = deployment.connect("app")
    handle = client.adopt_communicator(comm.comm_id)

    ops = []
    orders = [
        (0, 1, 2, 3),
        (3, 2, 1, 0),
        (1, 0, 3, 2),
        (2, 3, 0, 1),
        (0, 2, 1, 3),
        (3, 1, 2, 0),
    ]
    for i, phase in enumerate(program):
        for _ in range(phase["collectives"]):
            ops.append(client.all_reduce(handle, 4 * MB))
        next_order = orders[(i + 1) % len(orders)]
        deployment.reconfigure(
            comm.comm_id, ring=list(next_order), delays=phase["delays"]
        )
        # issue more collectives while the request is (possibly) in flight
        deployment.run(until=cluster.sim.now + phase["gap"])
        for _ in range(tail):
            ops.append(client.all_reduce(handle, 4 * MB))
        # drain before the next phase (one reconfiguration at a time)
        deployment.run()
    deployment.run()  # strict mode would raise on any inconsistency

    # liveness: everything completed, versions advanced, seqs in lockstep
    assert all(op.completed for op in ops)
    assert comm.strategy.version == len(program)
    assert comm.inconsistent_collectives == 0
    for op in ops:
        assert op.instance.consistent
        assert len(op.instance.rank_versions) == 4
    proxies = deployment.proxies_of(comm)
    seqs = {p.launched_seq(comm.comm_id, r) for r, p in enumerate(proxies)}
    assert len(seqs) == 1  # all ranks launched the same number of ops


@given(st.lists(st.floats(0.0, 0.05), min_size=4, max_size=4), st.integers(0, 3))
@settings(max_examples=25, deadline=None)
def test_versions_are_monotone_per_rank(delays, pre_ops):
    """Each rank's observed strategy version never decreases across its
    collective launches."""
    cluster = testbed_cluster()
    deployment = MccsDeployment(cluster)
    gpus = [cluster.hosts[h].gpus[0] for h in range(4)]
    comm = deployment.create_communicator("app", gpus)
    client = deployment.connect("app")
    handle = client.adopt_communicator(comm.comm_id)
    ops = [client.all_reduce(handle, 2 * MB) for _ in range(pre_ops)]
    deployment.reconfigure(comm.comm_id, ring=[3, 2, 1, 0], delays=delays)
    ops += [client.all_reduce(handle, 2 * MB) for _ in range(3)]
    deployment.run()
    for rank in range(4):
        versions = [
            op.instance.rank_versions[rank]
            for op in ops
            if rank in op.instance.rank_versions
        ]
        assert versions == sorted(versions)
