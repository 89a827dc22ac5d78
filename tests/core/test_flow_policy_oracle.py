"""FFA / PFA on compiled routes and remembered demands == the reference loop.

A hypothesis churn property drives a deployment through tenant joins and
exits, ring, channel and membership changes, link and NIC faults (through the
injector) and direct ``alive`` flips on the cluster dataclasses.  After
every step the production policies, sharing one demand memo across steps
as :class:`~repro.core.controller.CentralManager` does, must return what
``flow_policy_oracle`` (the loop they replaced, deriving everything
afresh) returns, or raise the same error.  A memo entry that outlives an
input it depends on, or route rows that outlive a link-state change,
shows up as a difference.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import flow_policy_oracle as oracle
from repro.cluster.specs import custom_cluster, testbed_cluster
from repro.collectives.ring import RingSchedule
from repro.core.deployment import MccsDeployment
from repro.core.policies.ffa import fair_flow_assignment
from repro.core.policies.pfa import priority_flow_assignment
from repro.faults.injector import FaultInjector

FABRICS = {
    "testbed": testbed_cluster,
    "clos": lambda: custom_cluster(
        num_spines=3, num_leaves=3, hosts_per_leaf=2, gpus_per_host=2,
        nics_per_host=2, name="clos3",
    ),
}
APPS = ("A", "B", "C")

step = st.one_of(
    st.tuples(
        st.just("create"), st.sampled_from(APPS),
        st.lists(st.integers(0, 11), min_size=2, max_size=6, unique=True),
        st.integers(1, 3),
    ),
    st.tuples(st.just("destroy"), st.integers(0, 7)),
    st.tuples(st.just("ring"), st.integers(0, 7), st.randoms(use_true_random=False)),
    st.tuples(st.just("channels"), st.integers(0, 7), st.integers(1, 3)),
    st.tuples(st.just("swap"), st.integers(0, 7), st.integers(0, 11), st.integers(0, 5)),
    st.tuples(st.just("link"), st.integers(0, 10_000)),
    st.tuples(st.just("nic"), st.integers(0, 5), st.integers(0, 1)),
    st.tuples(st.just("flip_nic"), st.integers(0, 5), st.integers(0, 1)),
    st.tuples(st.just("flip_host"), st.integers(0, 5)),
)


def outcome(fn):
    try:
        return fn()
    except Exception as exc:  # the same error, raised by both, is a match
        return (type(exc).__name__, str(exc))


class Churn:
    def __init__(self, fabric: str) -> None:
        self.cluster = FABRICS[fabric]()
        self.dep = MccsDeployment(self.cluster)
        self.injector = FaultInjector(
            self.cluster, self.dep.telemetry(), deployment=self.dep
        )
        self.memo = {}

    def comm(self, index):
        comms = self.dep.communicators()
        return comms[index % len(comms)] if comms else None

    def apply(self, action) -> None:
        kind, *args = action
        cluster = self.cluster
        hosts = cluster.hosts
        if kind == "create":
            app, ids, channels = args
            gpus = [cluster.gpus[i % len(cluster.gpus)] for i in ids]
            if len({g.global_id for g in gpus}) == len(gpus):
                self.dep.create_communicator(app, gpus, channels=channels)
        elif kind == "destroy":
            comm = self.comm(args[0])
            if comm is not None:
                client = self.dep.connect(comm.app_id)
                client.destroy_communicator(client.adopt_communicator(comm.comm_id))
        elif kind == "ring":
            comm = self.comm(args[0])
            if comm is not None:
                order = list(comm.strategy.ring.order)
                args[1].shuffle(order)
                ring = RingSchedule(tuple(order))
                comm.commit_strategy(comm.strategy.evolve(ring=ring))
        elif kind == "channels":
            comm = self.comm(args[0])
            if comm is not None:
                comm.commit_strategy(comm.strategy.evolve(channels=args[1]))
        elif kind == "swap":  # a membership change that keeps the world
            comm = self.comm(args[0])
            gpu = cluster.gpus[args[1] % len(cluster.gpus)]
            if comm is not None and gpu.global_id not in {g.global_id for g in comm.gpus}:
                gpus = list(comm.gpus)
                gpus[args[2] % len(gpus)] = gpu
                comm.apply_membership(gpus, comm.strategy.evolve())
        elif kind == "link":  # NIC links fail with their NIC, below
            links = sorted(link for link in cluster.topology.links if "spine" in link)
            link = links[args[0] % len(links)]
            if cluster.topology.link_is_up(link):
                self.injector.fail_link(link)
            else:
                self.injector.restore_link(link)
        elif kind == "nic":
            host = hosts[args[0] % len(hosts)]
            if host.nics[args[1]].alive:
                self.injector.fail_nic(host.host_id, args[1])
            else:
                self.injector.recover_nic(host.host_id, args[1])
        elif kind == "flip_nic":
            nic = hosts[args[0] % len(hosts)].nics[args[1]]
            nic.alive = not nic.alive
        else:
            host = hosts[args[0] % len(hosts)]
            host.alive = not host.alive

    def check(self, reserved) -> None:
        cluster, comms = self.cluster, self.dep.communicators()
        for comm_id in self.memo.keys() - {c.comm_id for c in comms}:
            del self.memo[comm_id]
        ffa = outcome(lambda: fair_flow_assignment(cluster, comms, memo=self.memo))
        assert ffa == outcome(lambda: oracle.fair_flow_assignment(cluster, comms))
        if isinstance(ffa, dict):
            # The pass went through every communicator, so every entry it
            # left must be what deriving afresh gives, route rows included.
            number = {link: i for i, link in enumerate(cluster.topology.links)}
            for comm in comms:
                fresh = oracle.collect_demands(cluster, comm)
                kept = self.memo[comm.comm_id][1]
                assert [(d.key, d.demand) for d in kept] == [
                    (d.key, d.demand) for d in fresh
                ]
                for d, want in zip(kept, fresh):
                    shared, own = d.rows
                    assert [set(shared) | set(links) for links in own] == [
                        {number[link] for link in path} for path in want.paths
                    ]
        assert outcome(
            lambda: priority_flow_assignment(
                cluster, comms, high_priority_apps=["A"],
                reserved_routes=reserved, memo=self.memo,
            )
        ) == outcome(
            lambda: oracle.priority_flow_assignment(
                cluster, comms, high_priority_apps=["A"], reserved_routes=reserved
            )
        )


@pytest.mark.parametrize("fabric", sorted(FABRICS))
@settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(
    steps=st.lists(step, min_size=1, max_size=14),
    reserved=st.sets(st.integers(0, 3), max_size=2),
)
def test_policies_match_reference_under_churn(fabric, steps, reserved):
    churn = Churn(fabric)
    for action in steps:
        churn.apply(action)
        churn.check(reserved)


def test_reference_agrees_on_a_clean_fabric():
    """Sanity anchor: without churn the two agree and place every flow."""
    churn = Churn("clos")
    for app, ids in (("A", [0, 4, 8]), ("B", [1, 5, 9, 2]), ("A", [3, 7])):
        churn.apply(("create", app, ids, 2))
    churn.check({0})
    comms = churn.dep.communicators()
    assignments = fair_flow_assignment(churn.cluster, comms)
    assert [len(assignments[c.comm_id]) for c in comms] == [
        len(oracle.collect_demands(churn.cluster, c)) for c in comms
    ] == [6, 8, 4]
