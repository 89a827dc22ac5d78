"""Elastic WAN interleavings: grow/shrink/drift/crash in any order.

The acceptance property: on a two-region WAN fabric, *any*
interleaving of rank joins, graceful leaves, WAN bandwidth drift,
service crashes, a host crash and live collectives must leave the
communicator able to run a byte-exact collective on its final
membership, with the journal replay-consistent.  A host crash loses
ranks, and a lost rank is a shrink: the communicator never aborts while
``MIN_WORLD`` ranks survive.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster.specs import multi_region_cluster
from repro.core.deployment import MccsDeployment
from repro.core.elastic import MIN_WORLD
from repro.errors import ReproError
from repro.faults import FaultInjector
from repro.netsim.fabric import RegionSpec, wan_links
from repro.netsim.units import MB

pytestmark = pytest.mark.chaos

_op = st.one_of(
    st.just(("grow",)),
    st.just(("shrink",)),
    st.tuples(st.just("drift"), st.integers(0, 1), st.sampled_from([0.25, 0.5, 2.0])),
    st.tuples(st.just("crash"), st.integers(0, 7)),
    st.tuples(st.just("host_crash"), st.integers(0, 7)),
    st.just(("collective",)),
    st.tuples(st.just("advance"), st.sampled_from([0.01, 0.05])),
)


def _run_interleaving(ops):
    """Replay one op script; returns (world, final recv bytes)."""
    cluster = multi_region_cluster(RegionSpec())
    deployment = MccsDeployment(cluster, ecmp_seed=0)
    deployment.enable_recovery(
        collective_deadline=1.0, heartbeat_until=3.0
    )
    deployment.enable_service_supervision(restart_delay=0.02)
    elastic = deployment.enable_elasticity()
    injector = FaultInjector(
        cluster, deployment.telemetry(), deployment=deployment
    )
    wan = wan_links(cluster.fabric)

    client = deployment.connect("geo")
    comm = client.create_communicator([cluster.gpu(i) for i in range(4)])
    host_crashed = False

    for op in ops:
        kind = op[0]
        if kind == "grow":
            elastic.chaos_grow(comm.comm_id)
        elif kind == "shrink":
            elastic.chaos_shrink(comm.comm_id)
        elif kind == "drift":
            injector.drift_bandwidth(wan[op[1]], op[2])
        elif kind == "crash":
            deployment.crash_service(op[1])
        elif kind == "host_crash":
            # At most one per script, and only where the survivors can
            # still form a communicator.
            svc = deployment.communicator(comm.comm_id)
            lost = sum(1 for gpu in svc.gpus if gpu.host_id == op[1])
            if not host_crashed and svc.world - lost >= MIN_WORLD:
                host_crashed = True
                injector.crash_host(op[1])
        elif kind == "collective":
            try:
                client.all_reduce(comm, 4 * MB)
            except ReproError:
                pass
        else:  # advance
            deployment.run(until=cluster.sim.now + op[1])
    deployment.run()

    svc = deployment.communicator(comm.comm_id)
    assert not svc.aborted, "graceful churn must never abort the tenant"
    assert deployment.verify_journal() == []

    comm = client.adopt_communicator(comm.comm_id)
    gpus = list(svc.gpus)
    sends = [client.alloc(g, 256) for g in gpus]
    recvs = [client.alloc(g, 256) for g in gpus]
    for buf in sends:
        buf.view(np.float32)[:] = 2.0
    final = client.all_reduce(
        comm, 256, send=[b.ref() for b in sends], recv=[b.ref() for b in recvs]
    )
    deployment.run()
    assert final.completed
    payload = tuple(bytes(r.view(np.uint8)) for r in recvs)
    return svc.world, payload


@given(ops=st.lists(_op, min_size=1, max_size=6))
@settings(
    max_examples=8,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_any_interleaving_is_byte_exact_across_engine_modes(ops):
    world, payload = _run_interleaving(ops)
    # Undisturbed-run equivalence: the final collective sums exactly.
    expected = np.full(64, 2.0 * world, dtype=np.float32).tobytes()
    assert all(chunk == expected for chunk in payload)
