"""Write-ahead state journal: schema, round-trip, checkpoints, replay.

The property test at the bottom is the crash-consistency contract of the
robustness tentpole: executing any prefix of a control-op program, then
crashing and journal-restarting a service, then finishing the program,
must leave the control plane byte-for-byte equal (buffer tables,
communicator epochs, strategy versions, issue frontiers) to a run that
never crashed.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.specs import testbed_cluster
from repro.core.controller import CentralManager
from repro.core.deployment import MccsDeployment
from repro.core.journal import StateJournal, checkpoint, replay_journal
from repro.errors import JournalError
from repro.netsim.units import MB
from repro.service import TenantQuota, TenantRegistry


# ----------------------------------------------------------------------
# record schema and serialization
# ----------------------------------------------------------------------
def test_append_rejects_unknown_op(hub):
    journal = StateJournal(hub)
    with pytest.raises(JournalError, match="unknown journal op"):
        journal.append(0.0, "nonsense", x=1)


def test_append_rejects_non_serializable_payload(hub):
    journal = StateJournal(hub)
    with pytest.raises(JournalError, match="not JSON-serializable"):
        journal.append(0.0, "alloc", buffer_id=object())


def test_json_round_trip_preserves_records_and_seq(hub):
    journal = StateJournal(hub)
    journal.append(0.0, "alloc", app="A", host=0, gpu=0, buffer_id=1,
                   size=256, handle_id=7)
    journal.append(0.001, "free", app="A", host=0, buffer_id=1)
    clone = StateJournal.from_json(journal.to_json(), hub)
    assert clone.records() == journal.records()
    # The sequence counter continues past the restored records.
    record = clone.append(0.002, "service_crash", host=0, generation=0)
    assert record.seq == 2


def test_replay_rejects_dangling_references(hub):
    journal = StateJournal(hub)
    journal.append(0.0, "free", app="A", host=0, buffer_id=99)
    with pytest.raises(JournalError, match="unknown buffer"):
        replay_journal(journal.records())
    journal2 = StateJournal(hub)
    journal2.append(0.0, "collective_issued", app="A", comm_id=5, seq=0,
                    kind="all_reduce", bytes=256)
    with pytest.raises(JournalError, match="unknown comm"):
        replay_journal(journal2.records())


# ----------------------------------------------------------------------
# every control op is journaled, and replay matches the live graph
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

    ops = {record.op for record in deployment.journal.records()}
    assert {
        "create_communicator",
        "install_strategy",
        "alloc",
        "free",
        "collective_issued",
    } <= ops
    assert deployment.verify_journal() == []
    live = deployment.control_state()
    assert keep.buffer_id in live.buffers
    assert buf.buffer_id not in live.buffers


def test_compaction_drops_superseded_history(deployment, manager, four_gpus):
    state = manager.admit("A", four_gpus)
    client = deployment.connect("A")
    comm = client.adopt_communicator(state.comm_id)
    # Garbage: alloc/free pairs and several superseded issue records.
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


def test_destroyed_communicator_history_is_compacted(
    deployment, manager, four_gpus
):
    state = manager.admit("A", four_gpus)
    client = deployment.connect("A")
    comm = client.adopt_communicator(state.comm_id)
    client.all_reduce(comm, 256)
    deployment.run()
    client.destroy_communicator(comm)
    deployment.journal.compact()
    comm_ops = [
        record.op
        for record in deployment.journal.records()
        if record.payload.get("comm_id") == state.comm_id
    ]
    assert comm_ops == []
    assert deployment.verify_journal() == []


def test_compaction_counts_removed_records_on_one_series(
    deployment, manager, four_gpus
):
    state = manager.admit("A", four_gpus)
    client = deployment.connect("A")
    comm = client.adopt_communicator(state.comm_id)
    for _ in range(5):
        client.all_reduce(comm, 256)
        deployment.run()
    removed = deployment.journal.compact()
    counter = deployment.telemetry().metrics.counter(
        "mccs_journal_compacted_total"
    )
    # Six records (create + five issues) checkpoint to one create.
    assert removed == 5
    assert counter.samples() == [({}, removed)]
    removed += deployment.journal.compact() + deployment.journal.compact()
    assert counter.total() == removed == 5


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
    elastic = deployment.enable_elasticity()
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
    monkeypatch.setattr("repro.core.journal.CHECKPOINT_FLOOR", 16)
    cluster = testbed_cluster()
    deployment = MccsDeployment(cluster)
    client = deployment.connect("A")
    comm = client.create_communicator(list(cluster.gpus))
    for gpu in cluster.gpus:
        client.alloc(gpu, 256)
    lengths = []
    for _ in range(300):
        client.all_reduce(comm, 256)
        deployment.run()
        lengths.append(len(deployment.journal))
    size = len(checkpoint(replay_journal(deployment.journal.records())))
    assert size == len(cluster.gpus) + 1  # allocs, create
    assert max(lengths) < 2 * max(16, size)
    # Checkpoints rewrite the log, never the append count.
    assert deployment.journal.appends_total == 300 + len(cluster.gpus) + 1
    assert deployment.verify_journal() == []


def test_checkpoint_is_one_record_per_live_object():
    """Fifty reconfigurations and ten grow + shrink cycles later, a
    communicator checkpoints to its one create record: no strategy
    version it has retired survives, in the live graph or the log."""
    cluster = testbed_cluster()
    deployment = MccsDeployment(cluster)
    elastic = deployment.enable_elasticity()
    registry = TenantRegistry(deployment, secret="test-secret")
    registry.register("t0")
    client = deployment.connect("A")
    gpus = list(cluster.gpus)
    comm = deployment.communicator(client.create_communicator(gpus[:4]).comm_id)
    other = client.create_communicator(gpus[4:6])
    client.alloc(gpus[0], 256)
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
    client.all_reduce(other, 1 * MB)
    deployment.run()
    state = replay_journal(deployment.journal.records())
    records = checkpoint(state)
    assert [record.op for record in records] == [
        "tenant_register", "alloc", "create_communicator",
        "create_communicator",
    ]
    assert len(records) == (
        len(state.tenants) + len(state.buffers) + len(state.communicators)
    )
    # 50 reconfigurations, and per grow or shrink a drain and a cutover.
    assert records[2].payload["epoch"] == comm.strategy_epoch == 90
    assert records[2].payload["membership_epoch"] == 20
    assert records[3].payload["next_seq"] == 1
    assert deployment.verify_journal() == []


def test_a_lost_install_still_shows(deployment, manager, four_gpus):
    """The strategy epoch counts installs, so a log that lost one names
    the communicator even when the current strategy replays right."""
    state = manager.admit("A", four_gpus)
    for _ in range(3):
        deployment.reconfigure(
            state.comm_id,
            routes=deployment.communicator(state.comm_id).strategy.route_map(),
        )
        deployment.run()
    records = deployment.journal.records()
    first = next(i for i, r in enumerate(records) if r.op == "install_strategy")
    lost = records[:first] + records[first + 1:]
    assert replay_journal(records).diff(deployment.control_state()) == []
    (line,) = replay_journal(lost).diff(deployment.control_state())
    assert line.startswith("communicators differ")
    assert f"changed=[{state.comm_id}]" in line


def _checkpointed_run(crash):
    """Traffic that checkpoints the journal, then (optionally) a crash
    and restart of host 0's service, then more traffic."""
    cluster = testbed_cluster()
    deployment = MccsDeployment(cluster)
    client = deployment.connect("A")
    gpus = [cluster.hosts[h].gpus[0] for h in range(2)]
    comm = client.create_communicator(gpus)
    keep = client.alloc(gpus[0], 512)
    client.free(client.alloc(gpus[0], 256))
    for _ in range(6):
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
    return deployment.control_state()


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
    comm = witness.create_communicator(
        [cluster.hosts[h].gpus[0] for h in (1, 2)]
    )
    gpu = cluster.hosts[0].gpus[0]
    earlier = client.alloc(gpu, 256)
    client.free(earlier)
    buf = client.alloc(gpu, 256)
    deployment.crash_service(0)
    client.free(buf)  # lands in the background retry path
    # Host 0 is down; traffic elsewhere checkpoints the journal, which
    # drops the alloc/free pair of ``earlier``.
    for _ in range(4):
        witness.all_reduce(comm, 256)
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

    Returns the final :class:`ControlPlaneState` of the live graph, after
    asserting it matches a pure journal replay.
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
            replayed = deployment.restart_service(crash_host)
            assert replayed > 0  # at minimum create_communicator
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
    return deployment.control_state()


def _canonical(state):
    """Replace process-global ids (buffer, comm, IPC handle) by their
    allocation order, so two independent runs become comparable.  Route
    ids and strategy versions are per-run deterministic already."""
    buffers = {}
    handle_ids = {h: i for i, h in enumerate(
        sorted(info["handle"] for info in state.buffers.values())
    )}
    for index, buffer_id in enumerate(sorted(state.buffers)):
        info = dict(state.buffers[buffer_id])
        info["handle"] = handle_ids[info["handle"]]
        buffers[index] = info
    communicators = {
        index: state.communicators[comm_id]
        for index, comm_id in enumerate(sorted(state.communicators))
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
