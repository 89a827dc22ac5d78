"""State journal: schema, checkpoints, replay.

The journal holds the two tables a restart reads back — buffers and
tenants.  The property test at the bottom is the crash-consistency
contract: executing any prefix of a control-op program, then crashing
and journal-restarting a service, then finishing the program, must leave
the control plane byte-for-byte equal (buffer tables, and the live
communicators' epochs, strategy versions and issue frontiers) to a run
that never crashed.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.specs import testbed_cluster
from repro.core.controller import CentralManager
from repro.core.deployment import MccsDeployment
from repro.core.journal import (
    ControlPlaneState,
    StateJournal,
    checkpoint,
    replay_journal,
)
from repro.errors import AllocationError, InvalidBufferError, JournalError, PolicyError
from repro.netsim.units import MB
from repro.service import TenantQuota, TenantRegistry


# ----------------------------------------------------------------------
# record schema
# ----------------------------------------------------------------------
def test_append_rejects_unknown_op(hub):
    journal = StateJournal(hub)
    with pytest.raises(JournalError, match="unknown journal op"):
        journal.append(0.0, "nonsense", x=1)


def test_append_rejects_non_serializable_payload(hub):
    journal = StateJournal(hub)
    with pytest.raises(JournalError, match="not JSON-serializable"):
        journal.append(0.0, "alloc", buffer_id=object())


def test_replay_rejects_dangling_references(hub):
    journal = StateJournal(hub)
    journal.append(0.0, "free", app="A", host=0, buffer_id=99)
    with pytest.raises(JournalError, match="unknown buffer"):
        replay_journal(journal.records())
    journal2 = StateJournal(hub)
    journal2.append(0.0, "tenant_update", tenant="t0", key_hash="h", quota={})
    with pytest.raises(JournalError, match="unknown tenant"):
        replay_journal(journal2.records())


def test_changed_keys_are_listed_in_sorted_order():
    """The mismatch text names changed keys sorted, like the only-left and
    only-right lists, so it reads the same in every process."""
    left, right = ControlPlaneState(), ControlPlaneState()
    names = [f"t{i}" for i in range(8)]
    for name in reversed(names):
        left.tenants[name] = {"key_hash": "a", "quota": {}}
        right.tenants[name] = {"key_hash": "b", "quota": {}}
    (line,) = left.diff(right)
    assert line == (
        "tenant tables differ: only-left=[] only-right=[] "
        f"changed={names}"
    )


# ----------------------------------------------------------------------
# buffer ops are journaled, and replay matches the live graph
# ----------------------------------------------------------------------
def test_control_ops_are_journaled_and_replay_consistent(
    deployment, manager, four_gpus
):
    state = manager.admit("A", four_gpus)
    client = deployment.connect("A")
    comm = client.adopt_communicator(state.comm_id)
    buf = client.alloc(four_gpus[0], 256)
    keep = client.alloc(four_gpus[1], 512)
    client.all_reduce(comm, 1 * MB)
    deployment.run()
    deployment.reconfigure(
        comm.comm_id,
        routes=deployment.communicator(comm.comm_id).strategy.route_map(),
    )
    deployment.run()
    client.free(buf)

    # Communicator creation, the collective and the reconfiguration add
    # nothing: the live deployment is their one home.
    ops = [record.op for record in deployment.journal.records()]
    assert ops == ["alloc", "alloc", "free"]
    assert deployment.verify_journal() == []
    live = deployment.control_state()
    assert keep.buffer_id in live.buffers
    assert buf.buffer_id not in live.buffers


def test_compaction_drops_superseded_history(deployment, manager, four_gpus):
    state = manager.admit("A", four_gpus)
    client = deployment.connect("A")
    comm = client.adopt_communicator(state.comm_id)
    # Garbage: alloc/free pairs; the collectives add no records.
    for _ in range(3):
        client.free(client.alloc(four_gpus[0], 256))
    for _ in range(4):
        client.all_reduce(comm, 256)
        deployment.run()
    survivor = client.alloc(four_gpus[2], 1024)

    before = len(deployment.journal)
    state_before = replay_journal(deployment.journal.records())
    removed = deployment.journal.compact()
    assert removed > 0
    assert len(deployment.journal) == before - removed
    # Compaction is semantics-preserving: replay state is unchanged, and
    # the live graph still matches it.
    assert replay_journal(deployment.journal.records()) == state_before
    assert deployment.verify_journal() == []
    assert survivor.buffer_id in deployment.control_state().buffers


def test_compaction_counts_removed_records_on_one_series(
    deployment, four_gpus
):
    client = deployment.connect("A")
    keep = client.alloc(four_gpus[1], 256)
    for _ in range(5):
        client.free(client.alloc(four_gpus[0], 256))
    removed = deployment.journal.compact()
    counter = deployment.telemetry().metrics.counter(
        "mccs_journal_compacted_total"
    )
    # Eleven records (keep + five alloc/free pairs) checkpoint to one alloc.
    assert removed == 10
    assert counter.samples() == [({}, removed)]
    removed += deployment.journal.compact() + deployment.journal.compact()
    assert counter.total() == removed == 10
    assert keep.buffer_id in deployment.control_state().buffers


# ----------------------------------------------------------------------
# checkpoints: the inverse of replay, taken by the journal itself
# ----------------------------------------------------------------------
_CONTROL_OPS = (
    "alloc", "free", "collective", "reconfig", "destroy", "grow", "shrink",
    "register", "update", "revoke",
)


def _replayed_states(ops):
    """Run a control-op program; yield the journal's replayed state after
    every step."""
    cluster = testbed_cluster()
    deployment = MccsDeployment(cluster)
    elastic = deployment.elastic
    registry = TenantRegistry(deployment, secret="test-secret")
    client = deployment.connect("A")
    gpus = list(cluster.gpus)
    comm_id = client.create_communicator(gpus[:2]).comm_id
    buffers, names = [], ("t0", "t1", "t2")
    for step, op in enumerate(ops):
        world = deployment.communicator(comm_id).world
        tenants = [a.tenant_id for a in registry.accounts()]
        if op == "alloc":
            buffers.append(client.alloc(gpus[step % len(gpus)], 256))
        elif op == "free" and buffers:
            client.free(buffers.pop(0))
        elif op == "collective":
            client.all_reduce(client.adopt_communicator(comm_id), 1 * MB)
        elif op == "reconfig":
            order = list(range(world))
            deployment.reconfigure(comm_id, ring=order[1:] + order[:1])
        elif op == "destroy":
            client.destroy_communicator(client.adopt_communicator(comm_id))
            comm_id = client.create_communicator(gpus[:2]).comm_id
        elif op == "grow" and world < len(gpus):
            elastic.grow(comm_id, [gpus[world]])
        elif op == "shrink" and world > 2:
            elastic.shrink(comm_id, [world - 1])
        elif op == "register" and len(tenants) < len(names):
            registry.register(next(n for n in names if n not in tenants))
        elif op == "update" and tenants:
            if step % 2:
                registry.rotate_key(tenants[0])
            else:
                registry.set_quota(tenants[0], TenantQuota(rate=float(step)))
        elif op == "revoke" and tenants:
            registry.revoke(tenants[0])
        deployment.run()
        yield replay_journal(deployment.journal.records())


@given(ops=st.lists(st.sampled_from(_CONTROL_OPS), min_size=1, max_size=12))
@settings(max_examples=25, deadline=None, derandomize=True)
def test_checkpoint_is_the_inverse_of_replay(ops):
    for state in _replayed_states(ops):
        records = checkpoint(state)
        assert replay_journal(records) == state
        assert [record.seq for record in records] == list(range(len(records)))


def test_single_communicator_loop_keeps_the_journal_bounded(monkeypatch):
    """A serving loop that takes and returns a scratch buffer per
    collective: its alloc/free pairs checkpoint away, and the collectives
    append nothing."""
    monkeypatch.setattr("repro.core.journal.CHECKPOINT_FLOOR", 16)
    cluster = testbed_cluster()
    deployment = MccsDeployment(cluster)
    client = deployment.connect("A")
    comm = client.create_communicator(list(cluster.gpus))
    for gpu in cluster.gpus:
        client.alloc(gpu, 256)
    lengths = []
    for step in range(300):
        scratch = client.alloc(cluster.gpus[step % len(cluster.gpus)], 256)
        client.all_reduce(comm, 256)
        deployment.run()
        client.free(scratch)
        lengths.append(len(deployment.journal))
    size = len(checkpoint(replay_journal(deployment.journal.records())))
    assert size == len(cluster.gpus)  # one alloc per kept buffer
    assert max(lengths) < 2 * max(16, size)
    # Checkpoints rewrite the log, never the append count.
    assert deployment.journal.appends_total == 600 + len(cluster.gpus)
    assert deployment.verify_journal() == []


def test_checkpoint_is_one_record_per_live_object():
    """Fifty quota and key updates, a revoked tenant and twenty buffer
    cycles later, the log checkpoints to one record per live tenant and
    buffer; fifty reconfigurations and ten grow + shrink cycles append
    nothing to it."""
    cluster = testbed_cluster()
    deployment = MccsDeployment(cluster)
    elastic = deployment.elastic
    registry = TenantRegistry(deployment, secret="test-secret")
    registry.register("t0")
    registry.register("t1")
    for step in range(50):
        if step % 2:
            registry.rotate_key("t0")
        else:
            registry.set_quota("t0", TenantQuota(rate=float(step)))
    registry.revoke("t1")
    client = deployment.connect("A")
    gpus = list(cluster.gpus)
    keep = client.alloc(gpus[0], 256)
    for step in range(20):
        client.free(client.alloc(gpus[step % len(gpus)], 512))
    length = len(deployment.journal)
    comm = deployment.communicator(client.create_communicator(gpus[:4]).comm_id)
    for step in range(50):
        shift = step % 3 + 1
        order = list(range(comm.world))
        deployment.reconfigure(comm.comm_id, ring=order[shift:] + order[:shift])
        deployment.run()
    for _ in range(10):
        elastic.grow(comm.comm_id, [gpus[6]])
        deployment.run()
        elastic.shrink(comm.comm_id, [4])
        deployment.run()
    assert len(deployment.journal) == length
    state = replay_journal(deployment.journal.records())
    records = checkpoint(state)
    assert [record.op for record in records] == ["tenant_register", "alloc"]
    assert len(records) == len(state.tenants) + len(state.buffers)
    assert records[0].payload == {"tenant": "t0", **registry.snapshot()["t0"]}
    assert records[1].payload["buffer_id"] == keep.buffer_id
    # 50 reconfigurations, and per grow or shrink a drain and a cutover.
    assert comm.strategy_epoch == 90 and comm.membership_epoch == 20
    assert deployment.verify_journal() == []


def test_a_refused_mutation_appends_nothing(deployment, four_gpus):
    """The tenant table appends before it applies and a buffer table after
    (an ``alloc`` record carries the ids the allocation issues); under
    either order a mutation that raises leaves no record behind."""
    registry = TenantRegistry(deployment, secret="test-secret")
    registry.register("t0")
    gpu = four_gpus[0]
    service = deployment.services[gpu.host_id]
    before = deployment.journal.records()
    with pytest.raises(AllocationError):
        service.allocate("A", gpu.global_id, gpu.memory_capacity + 1)
    with pytest.raises(InvalidBufferError):
        service.free("A", 12345)
    with pytest.raises(PolicyError):
        registry.register("t0")
    assert deployment.journal.records() == before
    assert deployment.verify_journal() == []


def test_a_lost_free_still_shows(deployment, four_gpus):
    """A log that lost a record names what it got wrong: a lost ``free``
    leaves its buffer only on the replayed side, a lost ``tenant_update``
    leaves the tenant changed."""
    registry = TenantRegistry(deployment, secret="test-secret")
    registry.register("t0")
    registry.set_quota("t0", TenantQuota(rate=5.0))
    client = deployment.connect("A")
    kept = client.alloc(four_gpus[0], 256)
    freed = client.alloc(four_gpus[1], 256)
    client.free(freed)
    records = deployment.journal.records()
    assert replay_journal(records).diff(deployment.control_state()) == []
    ops = [record.op for record in records]
    for op, expected in (
        ("free", f"buffer tables differ: only-left=[{freed.buffer_id}] "
                 "only-right=[] changed=[]"),
        ("tenant_update", "tenant tables differ: only-left=[] only-right=[] "
                          "changed=['t0']"),
    ):
        index = ops.index(op)
        lost = records[:index] + records[index + 1:]
        assert replay_journal(lost).diff(deployment.control_state()) == [expected]
    assert kept.buffer_id in deployment.control_state().buffers


def _checkpointed_run(crash):
    """Traffic and buffer churn that checkpoint the journal, then
    (optionally) a crash and restart of host 0's service, then more
    traffic."""
    cluster = testbed_cluster()
    deployment = MccsDeployment(cluster)
    client = deployment.connect("A")
    gpus = [cluster.hosts[h].gpus[0] for h in range(2)]
    comm = client.create_communicator(gpus)
    keep = client.alloc(gpus[0], 512)
    for step in range(6):
        client.free(client.alloc(gpus[step % 2], 256))
        client.all_reduce(comm, 1 * MB)
        deployment.run()
    compacted = deployment.telemetry().metrics.counter(
        "mccs_journal_compacted_total"
    )
    assert compacted.total() > 0
    if crash:
        deployment.crash_service(0)
        assert deployment.restart_service(0) > 0
    for _ in range(3):
        client.all_reduce(comm, 1 * MB)
        deployment.run()
    client.free(keep)
    assert deployment.verify_journal() == []
    return deployment


def test_restart_after_a_checkpoint_equals_never_crashed(monkeypatch):
    monkeypatch.setattr("repro.core.journal.CHECKPOINT_FLOOR", 4)
    assert _canonical(_checkpointed_run(crash=True)) == _canonical(
        _checkpointed_run(crash=False)
    )


def test_free_retried_across_a_checkpointed_restart_gives_up_nothing(
    monkeypatch,
):
    monkeypatch.setattr("repro.core.journal.CHECKPOINT_FLOOR", 4)
    cluster = testbed_cluster()
    deployment = MccsDeployment(cluster)
    deployment.enable_service_supervision(restart_delay=0.01)
    client = deployment.connect("A")
    witness = deployment.connect("B")
    gpu = cluster.hosts[0].gpus[0]
    earlier = client.alloc(gpu, 256)
    client.free(earlier)
    buf = client.alloc(gpu, 256)
    deployment.crash_service(0)
    client.free(buf)  # lands in the background retry path
    # Host 0 is down; an alloc elsewhere checkpoints the journal, which
    # drops the alloc/free pair of ``earlier``.
    witness.alloc(cluster.hosts[1].gpus[0], 256)
    deployment.run()
    assert deployment.service_of(0).alive
    assert earlier.buffer_id not in {
        record.payload.get("buffer_id")
        for record in deployment.journal.records()
    }
    # A duplicate of the free that landed before the outage: the restarted
    # service no longer knows the buffer, and the shim takes that as done.
    client._retry_free(earlier, attempt=0)
    deployment.run()
    assert client.retries_total >= 1
    assert client.giveups_total == 0
    assert buf.buffer_id not in deployment.control_state().buffers
    assert deployment.verify_journal() == []


# ----------------------------------------------------------------------
# the crash-consistency property
# ----------------------------------------------------------------------
_OPS = ("alloc", "free", "collective", "reconfig")


def _run_program(ops, crash_at=None, crash_host=None):
    """Execute a control-op program; optionally crash+restart mid-way.

    Returns the deployment, after asserting its live tables match a pure
    journal replay.
    """
    cluster = testbed_cluster()
    deployment = MccsDeployment(cluster)
    manager = CentralManager(deployment)
    gpus = [cluster.hosts[h].gpus[0] for h in range(2)]
    state = manager.admit("A", gpus)
    client = deployment.connect("A")
    comm = client.adopt_communicator(state.comm_id)
    live = []
    for step in range(len(ops) + 1):
        if crash_at is not None and step == crash_at:
            deployment.crash_service(crash_host)
            before = len(deployment.journal)
            assert deployment.restart_service(crash_host) == before
        if step == len(ops):
            break
        op = ops[step]
        if op == "alloc":
            live.append(client.alloc(gpus[step % 2], 256 * (step + 1)))
        elif op == "free":
            if live:
                client.free(live.pop(0))
        elif op == "collective":
            issued = client.all_reduce(comm, 1 * MB)
            deployment.run()
            assert issued.completed
        elif op == "reconfig":
            deployment.reconfigure(
                comm.comm_id,
                routes=deployment.communicator(
                    comm.comm_id
                ).strategy.route_map(),
            )
            deployment.run()
    deployment.run()
    assert deployment.verify_journal() == []
    return deployment


def _canonical(deployment):
    """The live buffer table and communicators, with buffer and IPC
    handle ids replaced by their allocation order so two independent
    runs become comparable.  Comm ids, route ids and strategy versions
    are per-deployment deterministic already."""
    state = deployment.control_state()
    buffers = {}
    handle_ids = {h: i for i, h in enumerate(
        sorted(info["handle"] for info in state.buffers.values())
    )}
    for index, buffer_id in enumerate(sorted(state.buffers)):
        info = dict(state.buffers[buffer_id])
        info["handle"] = handle_ids[info["handle"]]
        buffers[index] = info
    communicators = {
        comm.comm_id: (
            comm.app_id, [gpu.global_id for gpu in comm.gpus],
            comm.strategy.algorithm, comm.strategy.ring.order,
            comm.strategy.channels, comm.strategy.version,
            sorted(comm.strategy.route_map().items()),
            comm.strategy_epoch, comm.membership_epoch, comm.next_seq,
        )
        for comm in deployment.communicators()
    }
    return buffers, communicators


@given(
    ops=st.lists(st.sampled_from(_OPS), min_size=1, max_size=8),
    crash_at=st.integers(min_value=0, max_value=8),
    crash_host=st.sampled_from([0, 1]),
)
@settings(max_examples=15, deadline=None, derandomize=True)
def test_any_prefix_crash_recover_equals_never_crashed(
    ops, crash_at, crash_host
):
    crash_at = min(crash_at, len(ops))
    baseline = _run_program(ops)
    recovered = _run_program(ops, crash_at=crash_at, crash_host=crash_host)
    assert _canonical(baseline) == _canonical(recovered)
