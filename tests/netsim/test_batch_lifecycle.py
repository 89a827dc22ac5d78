"""A collective enters the network as one batch, and the batch is exact.

Ranks of one collective that launch at one instant share one launch event
and one ``add_flows``: the engine, the solver and every observer see the
collective's launch, not eight rank launches.  These are count gates, so
they hold on any host.  The fault-path tests hold the batch to what one
event per rank does — the oracle is the same run with joining disabled —
when a rank's path breaks between the fan-out and the launch instant.
"""

import pytest

from repro.cluster.specs import testbed_cluster
from repro.core.communicator import CollectiveInstance
from repro.core.deployment import MccsDeployment
from repro.faults import FaultInjector
from repro.netsim.engine import FlowSimulator

KIB = 1024


def make_env(channels=2, recovery=False):
    cluster = testbed_cluster()
    deployment = MccsDeployment(cluster, ecmp_seed=0)
    if recovery:
        deployment.enable_recovery(heartbeat_until=1.0)
    client = deployment.connect("app")
    state = deployment.create_communicator("app", list(cluster.gpus), channels=channels)
    handle = client.adopt_communicator(state.comm_id)
    return cluster, deployment, client, handle, deployment.communicator(state.comm_id)


class CallLog:
    """Wraps one observer method and records every call's flows."""

    def __init__(self, observer, name):
        self.calls = []
        original = getattr(observer, name)

        def spy(flows, *args):
            self.calls.append(list(flows))
            return original(flows, *args)

        setattr(observer, name, spy)


def launch_events(monkeypatch):
    """Callbacks scheduled by ``CollectiveInstance.rank_launch``."""
    scheduled = []
    original = FlowSimulator.schedule

    def schedule(self, when, callback):
        if "rank_launch" in getattr(callback, "__qualname__", ""):
            scheduled.append(when)
        return original(self, when, callback)

    monkeypatch.setattr(FlowSimulator, "schedule", schedule)
    return scheduled


def one_event_per_rank(monkeypatch):
    """The sequential oracle: no rank launch joins an earlier one."""
    original = FlowSimulator.schedule

    def schedule(self, when, callback):
        seq = original(self, when, callback)
        self.last_event_seq = -2
        return seq

    monkeypatch.setattr(FlowSimulator, "schedule", schedule)


def test_a_collective_is_one_batch(monkeypatch):
    cluster, deployment, client, handle, _ = make_env()
    sim = cluster.sim
    added = [CallLog(observer, "on_flows_added") for observer in sim._observers]
    moved = CallLog(deployment.telemetry().causal, "on_rates_changed")
    launches = launch_events(monkeypatch)
    before = sim.rate_recomputations
    op = client.all_reduce(handle, 64 * KIB)
    deployment.run()
    assert op.completed
    assert len(added) == 2  # the network sampler and the causal tracer
    for log in added:
        [batch] = log.calls
        assert [(f.flow_id, f.rank, f.channel) for f in batch] == [
            (f"flow{i}", i // 2, i % 2) for i in range(16)
        ]
        assert {id(f.tags) for f in batch} == {id(batch[0].tags)}
        assert batch[0].tags == {"trace": op.instance.trace}
    assert len(launches) == 1
    recomputations = sim.rate_recomputations - before
    assert 1 <= len(moved.calls) <= recomputations
    # Every traced flow's record names its rank and channel.
    records = op.instance.trace.attempts[-1].flows
    assert [(r.flow_id, r.rank, r.channel) for r in records.values()] == [
        (f"flow{i}", i // 2, i % 2) for i in range(16)
    ]


def test_a_rank_held_by_the_barrier_is_its_own_batch():
    cluster, deployment, client, handle, comm = make_env()
    client.all_reduce(handle, 64 * KIB)
    deployment.run()
    # Rank 0 hears about the reconfiguration first and holds the next
    # collective; ranks 1-7 launch it at once, rank 0 after the barrier.
    deployment.reconfigure(
        comm.comm_id, ring=[0, 2, 1, 3, 4, 5, 6, 7], delays=[0.0] + [0.010] * 7
    )
    deployment.run(until=cluster.sim.now + 0.001)
    log = CallLog(deployment.telemetry().causal, "on_flows_added")
    op = client.all_reduce(handle, 64 * KIB)
    deployment.run()
    assert op.completed and comm.inconsistent_collectives == 0
    ours = [
        batch for batch in log.calls
        if batch[0].tags.get("trace") is op.instance.trace
    ]
    assert [sorted({f.rank for f in batch}) for batch in ours] == [
        list(range(1, 8)), [0]
    ]


def _outcome(op, comm):
    instance = op.instance
    return {
        "completed": instance.completed,
        "aborted": instance.aborted,
        "error": None if instance.error is None else str(instance.error),
        "attempts": instance.attempts,
        "end_time": instance.end_time,
        "comm_aborted": comm.aborted,
        "failed_ranks": sorted(instance._failed_ranks),
        "trace": instance.trace.to_dict(),
    }


def _break_rank_path(kind, cluster, deployment, comm):
    """At the fan-out instant, after the last rank launched, break one
    rank's path: both NICs of host 1 die (fresh edges to or from it raise
    at establishment), the same on host 2 with its links then back up (no
    link down, so the ranks before the broken one share a batch), or a link
    under rank 3's cached channel-1 connection goes down (``add_flows``
    raises).  Returns the patched ``rank_launch`` and the first rank whose
    launch fails."""
    injector = FaultInjector(cluster, deployment.telemetry(), deployment=deployment)
    if kind in ("nic", "nic_links_up"):
        host = 1 if kind == "nic" else 2
        failing = 2 * host - 1

        def strike():
            injector.fail_nic(host, 0)
            injector.fail_nic(host, 1)
            if kind == "nic_links_up":
                for nic in (0, 1):
                    for link in cluster.links_of_nic(host, nic):
                        cluster.sim.restore_link(link)

    else:
        table, _ = comm.datapath.table_for(comm.strategy, comm.gpus)
        link = table.connection(comm.gpus[3], comm.gpus[4], 1).path[0]
        users = {c.src.global_id for c in table.connections() if link in c.path}
        assert users == {comm.gpus[3].global_id}
        failing = 3

        def strike():
            injector.fail_link(link)

    original = CollectiveInstance.rank_launch
    fired = []

    def rank_launch(self, rank, strategy):
        original(self, rank, strategy)
        if rank == self.world - 1 and not fired:
            fired.append(rank)
            strike()

    return rank_launch, failing


def _run_with_fault(kind, recovery, monkeypatch):
    cluster, deployment, client, handle, comm = make_env(recovery=recovery)
    if kind == "link":
        client.all_reduce(handle, 64 * KIB)  # connections are cached
        deployment.run()
    rank_launch, failing = _break_rank_path(kind, cluster, deployment, comm)
    monkeypatch.setattr(CollectiveInstance, "rank_launch", rank_launch)
    added = CallLog(deployment.telemetry().causal, "on_flows_added")
    op = client.all_reduce(handle, 64 * KIB)
    failed_ranks = []
    original_failed = op.instance.rank_failed

    def rank_failed(rank, error):
        failed_ranks.append(rank)
        original_failed(rank, error)

    op.instance.rank_failed = rank_failed
    deployment.run()
    ranks = [[f.rank for f in batch] for batch in added.calls]
    return _outcome(op, comm), failed_ranks, failing, ranks


@pytest.mark.parametrize("recovery", [False, True], ids=["abort", "recovery"])
@pytest.mark.parametrize("kind", ["nic", "nic_links_up", "link"])
def test_a_broken_rank_path_splits_the_batch_exactly(kind, recovery, monkeypatch):
    got, failed, failing, batches = _run_with_fault(kind, recovery, monkeypatch)
    with monkeypatch.context() as sequential:
        one_event_per_rank(sequential)
        want, want_failed, _, want_batches = _run_with_fault(kind, recovery, sequential)
    assert all(len(set(batch)) == 1 for batch in want_batches)
    assert got == want
    assert failed == want_failed
    # The flows entered in the sequential order, the ranks before the
    # broken one first, each flow carrying its rank.
    flat = [rank for batch in batches for rank in batch]
    assert flat == [rank for batch in want_batches for rank in batch]
    assert flat[: 2 * failing] == [rank for rank in range(failing) for _ in range(2)]
    assert failed[0] == failing
    if kind == "nic_links_up":
        assert batches[0] == flat[: 2 * failing]  # one batch before the split
    else:
        # While a link is down the ranks enter one by one, so a stale cached
        # connection fails its own rank and touches no later one.
        assert all(len(set(batch)) == 1 for batch in batches)
    if not recovery:
        assert failed == [failing] and got["failed_ranks"] == [failing]
        assert got["aborted"] and not got["completed"]
