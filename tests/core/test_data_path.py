"""The service's data path: in-place execution into tenant buffers.

The executor writes a collective's result straight into the tenant's
receive buffers, so the frontend has to (a) move nothing when there is
nowhere to put a result and (b) classify aliasing between the ranges a
request names before the collective is sequenced; and (c) what scratch the
executor still needs comes from the deployment, not from a fresh
allocation per collective.
"""

import tracemalloc
from functools import partial

import numpy as np
import pytest

from repro.cluster.specs import testbed_cluster
from repro.collectives.executor import ExecutionPlan
from repro.collectives.reference import reference_outputs
from repro.collectives.ring import RingSchedule
from repro.collectives.types import Collective, ReduceOp, input_bytes
from repro.core.deployment import MccsDeployment
from repro.core.strategy import CollectiveStrategy
from repro.errors import InvalidBufferError

BUILTINS = ("ring", "tree", "halving_doubling")
NBYTES = 160  # 40 four-byte elements per rank


def _setup(algorithm="ring"):
    cluster = testbed_cluster()
    deployment = MccsDeployment(cluster)
    gpus = [cluster.hosts[h].gpus[0] for h in range(4)]
    strategy = CollectiveStrategy(
        ring=RingSchedule((2, 0, 3, 1)), channels=2, algorithm=algorithm
    )
    comm = deployment.create_communicator("app", gpus, strategy=strategy)
    client = deployment.connect("app")
    return deployment, client, client.adopt_communicator(comm.comm_id), gpus


def _filled(client, gpus, nbytes, seed):
    rng = np.random.default_rng(seed)
    bufs = [client.alloc(gpu, nbytes) for gpu in gpus]
    for buf in bufs:
        buf.view(np.int32)[:] = rng.integers(1, 4, nbytes // 4)
    return bufs


def test_send_without_recv_moves_no_bytes(monkeypatch):
    deployment, client, comm, gpus = _setup()
    sends = _filled(client, gpus, NBYTES, seed=0)
    before = [buf.view(np.int32).copy() for buf in sends]

    issued = deployment.telemetry().metrics.counter("mccs_collectives_issued_total")
    start = issued.total()
    timing_only = client.all_reduce(comm, NBYTES)
    deployment.run()

    def no_bytes(*args, **kwargs):
        raise AssertionError("the data plane ran with nowhere to put the result")

    monkeypatch.setattr(ExecutionPlan, "run", no_bytes)
    send_only = client.all_reduce(comm, NBYTES, send=sends, dtype="int32")
    deployment.run()
    monkeypatch.undo()

    assert send_only.completed
    # (issued at a later instant: equal up to the float subtraction)
    assert send_only.duration() == pytest.approx(timing_only.duration(), rel=1e-9)
    assert issued.total() - start == 2  # issued alike
    for buf, kept in zip(sends, before):
        np.testing.assert_array_equal(buf.view(np.int32), kept)
    # same simulated time again once there is a place for the result
    recvs = [client.alloc(gpu, NBYTES) for gpu in gpus]
    full = client.all_reduce(comm, NBYTES, send=sends, recv=recvs, dtype="int32")
    deployment.run()
    assert full.duration() == pytest.approx(timing_only.duration(), rel=1e-9)
    expected = np.sum(before, axis=0)
    for buf in recvs:
        np.testing.assert_array_equal(buf.view(np.int32), expected)
    assert deployment.verify_journal() == []


@pytest.mark.parametrize("algorithm", BUILTINS)
@pytest.mark.parametrize(
    "kind", [Collective.ALL_REDUCE, Collective.BROADCAST, Collective.REDUCE]
)
def test_exact_in_place_is_legal_and_byte_exact(algorithm, kind):
    deployment, client, comm, gpus = _setup(algorithm)
    bufs = _filled(client, gpus, NBYTES, seed=1)
    inputs = [buf.view(np.int32).copy() for buf in bufs]
    op = getattr(client, kind.value)
    kwargs = {"op": ReduceOp.PROD} if kind is not Collective.BROADCAST else {}
    if kind is not Collective.ALL_REDUCE:
        kwargs["root"] = 2
    handle = op(comm, NBYTES, send=bufs, recv=bufs, dtype="int32", **kwargs)
    deployment.run()
    assert handle.completed
    expected = reference_outputs(kind, inputs, op=ReduceOp.PROD, root=2)
    for buf, want in zip(bufs, expected):
        np.testing.assert_array_equal(buf.view(np.int32), want)


@pytest.mark.parametrize("algorithm", BUILTINS)
def test_partial_overlap_is_refused_before_anything_is_journaled(algorithm):
    deployment, client, comm, gpus = _setup(algorithm)
    big = [client.alloc(gpu, 2 * NBYTES) for gpu in gpus]
    records = len(deployment.journal)
    next_seq = deployment.communicator(comm.comm_id).next_seq
    half = NBYTES // 2

    def issue(kind, out_bytes, send, recv):
        with pytest.raises(InvalidBufferError, match="overlaps"):
            getattr(client, kind.value)(comm, out_bytes, send=send, recv=recv)

    # recv window shifted half a buffer into the send window
    issue(
        Collective.ALL_REDUCE, NBYTES,
        [b.ref(0, NBYTES) for b in big], [b.ref(half, NBYTES) for b in big],
    )
    # one rank overlapping is enough
    issue(
        Collective.BROADCAST, NBYTES,
        [b.ref(0, NBYTES) for b in big],
        [big[0].ref(NBYTES, NBYTES), big[1].ref(4, NBYTES)]
        + [b.ref(NBYTES, NBYTES) for b in big[2:]],
    )
    # input and output sizes differ: even a shared start is partial
    issue(
        Collective.ALL_GATHER, NBYTES,
        [b.ref(0, NBYTES // 4) for b in big], [b.ref(0, NBYTES) for b in big],
    )
    issue(
        Collective.REDUCE_SCATTER, NBYTES // 4,
        [b.ref(0, NBYTES) for b in big], [b.ref(NBYTES - 4, NBYTES // 4) for b in big],
    )
    assert len(deployment.journal) == records
    assert deployment.communicator(comm.comm_id).next_seq == next_seq
    assert comm.comm_id in {c.comm_id for c in deployment.communicators()}
    # disjoint windows of one allocation stay legal
    done = client.all_reduce(
        comm, NBYTES,
        send=[b.ref(0, NBYTES) for b in big], recv=[b.ref(NBYTES, NBYTES) for b in big],
    )
    deployment.run()
    assert done.completed


def test_a_steady_state_collective_allocates_nothing_payload_sized():
    """Reduce-scatter's working vectors and reduce's partial sums live in
    the deployment's staging buffer: once a kind has run, issuing it
    again allocates less than one output buffer."""
    out, world = 256 * 1024, 8
    cluster = testbed_cluster()
    deployment = MccsDeployment(cluster)
    gpus = list(cluster.gpus)[:world]
    strategy = CollectiveStrategy(
        ring=RingSchedule(tuple(range(world))), channels=2, algorithm="ring"
    )
    client = deployment.connect("app")
    comm = client.adopt_communicator(
        deployment.create_communicator("app", gpus, strategy=strategy).comm_id
    )
    sends = _filled(client, gpus, out * world, seed=2)
    recvs = [client.alloc(gpu, out) for gpu in gpus]
    for kind in Collective:
        nbytes = input_bytes(kind, out, world)
        inputs = [buf.view(np.int32)[: nbytes // 4] for buf in sends]
        expected = reference_outputs(kind, inputs)
        issue = partial(
            getattr(client, kind.value), comm, out,
            send=[buf.ref(0, nbytes) for buf in sends], recv=recvs, dtype="int32",
        )
        issue()
        deployment.run()
        tracemalloc.start()
        try:
            handle = issue()
            deployment.run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert handle.completed
        assert peak < out, f"{kind.value} allocated {peak} bytes"
        for buf, want in zip(recvs, expected):
            np.testing.assert_array_equal(buf.view(np.int32), want)
