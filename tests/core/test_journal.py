"""Write-ahead state journal: schema, round-trip, compaction, replay.

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
from repro.core.journal import StateJournal, replay_journal
from repro.errors import JournalError
from repro.netsim.units import MB


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
