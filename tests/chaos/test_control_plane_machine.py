"""Chaos as a model-based test: one state machine drives the control plane.

Every rule is a public call a tenant or the provider could make:
collectives (data-carrying and plain), clock advances, alloc/free,
reconfiguration, elastic grow/shrink, live upgrades, create/destroy of a
second short-lived subject communicator (the *extra*), and
:meth:`FaultInjector.apply` of link down/up, degrade, bandwidth drift,
NIC fail/recover, host crash and service crash.  A *subject* tenant takes
the faults; a *witness* tenant on hosts 0-1, which no fault touches,
shares the fabric.  A small pure model tracks the subject's membership
(elastic commits move it, dead hosts drop out), the buffers the tenants
hold and freed, dead hosts, and the one component down at a time (two
spines and two NICs per host keep the fabric connected through one
failure).

After every step: no inconsistent collective, the journal replays to the
live control plane, aborts are typed, no closed trace holds an ``active``
flow.  Once quiescent (``settle`` and teardown): nothing hangs, completed
bytes equal :mod:`repro.collectives.reference`, every witness op
completed, every trace closed once, membership is the model's, the
subject aborted only if fewer than ``MIN_WORLD`` of its ranks survive and
otherwise keeps at least ``MIN_WORLD``, a membership change the extra's
destroy cut short failed typed, and every buffer a live service holds is
one a tenant holds.
CI's chaos job explores with ``--hypothesis-profile chaos`` (registered
in ``tests/conftest.py``) and a ``--hypothesis-seed`` matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import HealthCheck, currently_in_test_context, event, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from repro.cluster.specs import multi_region_cluster, testbed_cluster
from repro.collectives.reference import reference_outputs
from repro.collectives.types import Collective, input_bytes
from repro.core.deployment import MccsDeployment
from repro.core.elastic import MIN_WORLD, MembershipChange
from repro.core.service import UpgradeSession
from repro.errors import ReproError
from repro.faults import FaultEvent, FaultInjector, FaultKind
from repro.netsim.units import KB, MB
from repro.telemetry.causal import TRACE_ABORTED, TRACE_COMPLETED

pytestmark = pytest.mark.chaos

#: fabric -> (cluster factory, subject GPUs, witness GPUs).  The witness
#: sits on hosts 0-1, which no fault touches.
FABRICS = {
    "testbed": (testbed_cluster, [0, 2, 4, 6], [1, 3]),
    "two_region": (multi_region_cluster, [2, 3, 4, 5], [0, 1]),
}
WITNESS_HOSTS = {0, 1}
#: A collective may run this long before recovery's watchdog reports it.
DEADLINE = 1.0
#: Heartbeats watch this long after a host crash (and in every settle), so
#: a crash is noticed even while the subject is idle.
HEARTBEAT_WINDOW = 0.05
#: Simulated time a settle gives every retry loop to run out.
SETTLE_HORIZON = 10.0
#: Targets are drawn as indices into the fabric's candidate lists, so a
#: shrunk failure prints as replayable steps.
PICK = st.integers(0, 63)


def nth(items, pick):
    return items[pick % len(items)]


@dataclass
class Op:
    """One issued collective and what its bytes must become."""

    tenant: str
    handle: object
    expected: object = None  # per-rank reference outputs, for data ops
    bufs: list = field(default_factory=list)


def note(outcome):
    """One line of ``--hypothesis-show-statistics``; a replayed regression
    runs outside Hypothesis and records none."""
    if currently_in_test_context():
        event(outcome)


class ChaosMachine(RuleBasedStateMachine):
    @initialize(fabric=st.sampled_from(sorted(FABRICS)))
    def setup(self, fabric):
        make, subject, witness = FABRICS[fabric]
        self.cluster = cluster = make()
        self.deployment = deployment = MccsDeployment(cluster)
        deployment.enable_recovery(collective_deadline=DEADLINE)
        deployment.enable_service_supervision()
        self.elastic = deployment.elastic
        self.injector = FaultInjector(cluster, deployment.telemetry(), deployment=deployment)
        self.subject = deployment.connect("subject")
        self.witness = deployment.connect("witness")
        self.scomm = self.subject.create_communicator([cluster.gpu(g) for g in subject])
        self.wcomm = self.witness.create_communicator([cluster.gpu(g) for g in witness])
        self.spares = [
            g.global_id for g in cluster.gpus if g.global_id not in subject + witness
        ]
        self.fault_hosts = [h.host_id for h in cluster.hosts if h.host_id not in WITNESS_HOSTS]
        witness_nics = tuple(f"h{h}.nic" for h in WITNESS_HOSTS)
        links = sorted(
            link for link in cluster.topology.links
            if ".local" not in link and not any(nic in link for nic in witness_nics)
        )
        #: Switch-to-switch links with a parallel twin may go down; any
        #: unpinned link (NIC links and the WAN too) may slow down.
        self.switch_links = [l for l in links if ".nic" not in l and "wan" not in l]
        self.slow_links = links
        # -- the model --
        self.members = list(subject)
        self.dead_hosts = set()
        self.down = None
        self.slowed = set()
        self.buffers = {}
        self.freed = set()
        self.ops = []
        self.pending = []  # reconfig/upgrade sessions and membership changes
        self.changes = []  # the subject's membership changes, in issue order
        self.extra = None  # the extra communicator's shim handle
        self.extra_changes = []
        self.cut_short = []  # extra changes in flight when it was destroyed

    # -- helpers --
    def live(self):
        return self.deployment.communicator(self.scomm.comm_id)

    def absorb_changes(self):
        """Move the model's membership by the subject's finished changes;
        one is in flight at a time, so issue order is commit order."""
        while self.changes and self.changes[0].state in ("done", "failed"):
            change = self.changes.pop(0)
            if change.state == "done":
                self.members.extend(change.joined)
                for gid in change.left:
                    self.members.remove(gid)

    def inject(self, kind, **target):
        self.injector.apply(FaultEvent(self.cluster.sim.now, kind, **target))
        note(f"fault: {kind.value}")

    def watch_heartbeats(self):
        now = self.cluster.sim.now
        self.deployment.enable_recovery(
            collective_deadline=DEADLINE, heartbeat_until=now + HEARTBEAT_WINDOW
        )

    def issue(self, name, call):
        """Run one API call; a typed refusal is an outcome, not a bug."""
        try:
            result = call()
        except ReproError as exc:
            note(f"{name}: {type(exc).__name__}")
            return None
        note(f"{name}: accepted")
        return result

    def data_op(self, tenant, client, comm_id, kind):
        """Allocate filled send and empty recv buffers on the current
        ranks and issue ``kind`` on them; the reference output goes on
        the op."""
        comm = client.adopt_communicator(comm_id)  # the current ranks
        world = comm.world
        out_bytes = 4 * 8 * world
        in_elems = input_bytes(kind, out_bytes, world) // 4
        bufs, inputs = [], []

        def allocate():
            for rank, gpu in enumerate(comm.gpus):
                bufs.append(client.alloc(gpu, in_elems * 4))
                bufs[-1].view()[:] = np.arange(in_elems) * (rank + 1) + len(self.ops)
                inputs.append(bufs[-1].view().copy())
            bufs.extend(client.alloc(gpu, out_bytes) for gpu in comm.gpus)
            return bufs

        handle = None
        if self.issue(f"{tenant} alloc", allocate):
            # The shim's collective calls are named after their kind.
            call = getattr(client, kind.value)
            handle = self.issue(f"{tenant} {kind.value}", lambda: call(
                comm, out_bytes, send=bufs[:world], recv=bufs[world:]
            ))
        expected = reference_outputs(kind, inputs) if handle is not None else None
        self.ops.append(Op(tenant, handle, expected, bufs))

    # -- tenant rules --
    @rule(kind=st.sampled_from(list(Collective)))
    def subject_data_collective(self, kind):
        self.data_op("subject", self.subject, self.scomm.comm_id, kind)

    @rule(size=st.sampled_from([256 * KB, 1 * MB, 4 * MB]))
    def subject_collective(self, size):
        handle = self.issue("all_reduce", lambda: self.subject.all_reduce(self.scomm, size))
        self.ops.append(Op("subject", handle))

    @rule()
    def witness_collective(self):
        self.data_op("witness", self.witness, self.wcomm.comm_id, Collective.ALL_REDUCE)

    @rule(pick=PICK, size=st.sampled_from([256, 4 * KB]))
    def alloc(self, pick, size):
        self.absorb_changes()
        gid = nth(self.members, pick)
        buf = self.issue("alloc", lambda: self.subject.alloc(self.cluster.gpu(gid), size))
        if buf is not None:
            self.buffers[buf.buffer_id] = buf

    @precondition(lambda self: self.buffers)
    @rule(pick=PICK)
    def free(self, pick):
        buffer_id = nth(sorted(self.buffers), pick)
        self.subject.free(self.buffers.pop(buffer_id))
        self.freed.add(buffer_id)
        note("free")

    @rule(dt=st.sampled_from([0.001, 0.005, 0.02]))
    def advance(self, dt):
        self.deployment.run(until=self.cluster.sim.now + dt)
        note("advance")

    # -- provider rules --
    @rule(channels=st.sampled_from([None, 1, 2]))
    def reconfigure(self, channels):
        world = self.live().world
        ring = None if channels else list(reversed(range(world)))
        session = self.issue("reconfigure", lambda: self.deployment.reconfigure(
            self.scomm.comm_id, ring=ring, channels=channels, barrier_timeout=0.05,
            on_done=lambda s: None, on_failed=lambda s: None,
        ))
        if session is not None:
            self.pending.append(session)

    def change(self, name, call, changes):
        change = self.issue(name, call)
        if change is not None:
            self.pending.append(change)
            changes.append(change)

    @rule(pick=PICK)
    def grow(self, pick):
        gpu = self.cluster.gpu(nth(self.spares, pick))
        self.change("grow", lambda: self.elastic.grow(self.scomm.comm_id, [gpu]), self.changes)

    @rule(pick=PICK)
    def shrink(self, pick):
        world = self.live().world
        self.change(
            "shrink", lambda: self.elastic.shrink(self.scomm.comm_id, [pick % world]), self.changes
        )

    @rule(pick=PICK)
    def upgrade(self, pick):
        service = self.deployment.service_of(pick % self.cluster.num_hosts)
        session = self.issue("upgrade", service.upgrade)
        if session is not None:
            self.pending.append(session)

    # -- the extra communicator: created, driven and destroyed mid-change --
    @precondition(lambda self: self.extra is None)
    @rule(pick=PICK)
    def create_extra(self, pick):
        alive = [
            g for g in sorted(set(self.spares + self.members))
            if self.cluster.gpu(g).host_id not in self.dead_hosts
        ]
        if len(alive) < MIN_WORLD:
            return note("create_extra: too few live GPUs")
        gids = (alive[pick % len(alive):] + alive[:pick % len(alive)])[:3]
        self.extra = self.issue("create_extra", lambda: self.subject.create_communicator(
            [self.cluster.gpu(g) for g in gids]
        ))
        self.extra_changes = []

    @precondition(lambda self: self.extra is not None)
    @rule()
    def extra_collective(self):
        handle = self.issue("extra all_reduce", lambda: self.subject.all_reduce(self.extra, 256 * KB))
        self.ops.append(Op("subject", handle))

    @precondition(lambda self: self.extra is not None)
    @rule(pick=PICK, grow=st.booleans())
    def change_extra(self, pick, grow):
        comm_id = self.extra.comm_id
        if grow:
            gpu = self.cluster.gpu(nth(self.spares, pick))
            call = lambda: self.elastic.grow(comm_id, [gpu])  # noqa: E731
        else:
            call = lambda: self.elastic.shrink(  # noqa: E731
                comm_id, [pick % self.deployment.communicator(comm_id).world]
            )
        self.change("change_extra", call, self.extra_changes)

    @precondition(lambda self: self.extra is not None)
    @rule()
    def destroy_extra(self):
        """A tenant destroy may land while a grow, shrink or upgrade drain
        is in flight on the communicator; in-flight collectives refuse it."""
        if self.issue("destroy_extra", lambda: self.subject.destroy_communicator(self.extra) or True):
            cut = [c for c in self.extra_changes if c.state not in ("done", "failed")]
            upgrading = any(isinstance(i, UpgradeSession) and not i.done for i in self.pending)
            note(f"destroy_extra: mid-change={bool(cut)} mid-upgrade={upgrading}")
            self.cut_short += cut
            self.extra = None

    # -- fault rules (never on the witness's hosts or NIC links) --
    @precondition(lambda self: self.down is None)
    @rule(pick=PICK)
    def link_down(self, pick):
        link = nth(self.switch_links, pick)
        self.inject(FaultKind.LINK_DOWN, link_id=link)
        self.down = (FaultKind.LINK_UP, {"link_id": link})

    @precondition(lambda self: self.down is None)
    @rule(pick=PICK, nic=st.integers(0, 1))
    def nic_fail(self, pick, nic):
        host = nth(self.fault_hosts, pick)
        self.inject(FaultKind.NIC_FAIL, host_id=host, nic_index=nic)
        self.down = (FaultKind.NIC_RECOVER, {"host_id": host, "nic_index": nic})

    @precondition(lambda self: self.down is not None)
    @rule()
    def repair(self):
        kind, target = self.down
        self.inject(kind, **target)
        self.down = None

    @rule(pick=PICK, factor=st.sampled_from([0.05, 0.25, 0.5]), drift=st.booleans())
    def slow_link(self, pick, factor, drift):
        link = nth(self.slow_links, pick)
        if drift:
            self.inject(FaultKind.BANDWIDTH_DRIFT, link_id=link, factor=factor * 4)
        else:
            self.inject(FaultKind.LINK_DEGRADE, link_id=link, factor=factor)
        self.slowed.add(link)

    @precondition(lambda self: self.slowed)
    @rule(pick=PICK)
    def restore_link(self, pick):
        link = nth(sorted(self.slowed), pick)
        self.inject(FaultKind.LINK_RESTORE, link_id=link)
        self.slowed.discard(link)

    @rule(pick=PICK)
    def host_crash(self, pick):
        host = nth(self.fault_hosts, pick)
        self.inject(FaultKind.HOST_CRASH, host_id=host)
        self.dead_hosts.add(host)
        self.watch_heartbeats()

    @rule(pick=PICK)
    def service_crash(self, pick):
        host = nth(self.fault_hosts, pick)
        self.inject(FaultKind.SERVICE_CRASH, host_id=host)

    # -- invariants --
    @invariant()
    def barriers_keep_every_collective_consistent(self):
        for comm in self.deployment.communicators():
            assert comm.inconsistent_collectives == 0

    @invariant()
    def journal_replays_to_the_live_control_plane(self):
        assert self.deployment.verify_journal() == []

    @invariant()
    def aborts_are_typed(self):
        for op in self.ops:
            handle = op.handle
            if handle is None:
                continue
            if handle.error is not None:
                assert isinstance(handle.error, ReproError), repr(handle.error)
            if handle.instance is not None and handle.instance.aborted:
                assert isinstance(handle.instance.error, ReproError), repr(handle.instance.error)

    @invariant()
    def closed_traces_hold_no_active_flow(self):
        for trace in self.deployment.telemetry().causal.closed_traces():
            assert trace.end_time is not None
            for record in trace.all_flows():
                assert record.status != "active", (trace.trace_id, record.flow_id)
                assert all(segment.end is not None for segment in record.segments)

    @rule()
    def settle(self):
        """Run every retry loop out, then check the quiescent contract."""
        self.watch_heartbeats()
        self.deployment.run(until=self.cluster.sim.now + SETTLE_HORIZON)
        self.check_quiescent()
        note("settle")
        for op in self.ops:
            for buf in op.bufs:
                self.issue(f"{op.tenant} free", lambda buf=buf: buf.client.free(buf))
        self.ops, self.pending, self.cut_short = [], [], []

    def teardown(self):
        if hasattr(self, "deployment"):
            self.settle()

    def check_quiescent(self):
        deployment = self.deployment
        # No hang: nothing moves, every op and session reached an end.
        assert deployment.sim.active_flow_count() == 0
        for op in self.ops:
            handle = op.handle
            if handle is None:
                continue
            assert not handle.pending, f"{op.tenant} seq={handle.seq} stuck in the shim"
            if handle.instance is None:
                assert isinstance(handle.error, ReproError)
                continue
            assert handle.instance.end_time is not None, f"{op.tenant} seq={handle.seq} hung"
        for item in self.pending:
            if isinstance(item, MembershipChange):
                ended = item.state in ("done", "failed")
            else:
                ended = item.done or item.failed
            assert ended, f"{type(item).__name__} never finished"
        # A destroy that cut a membership change short failed it, typed.
        for change in self.cut_short:
            assert change.state == "failed" and isinstance(change.error, ReproError), change
        # Completed bytes are the reference; the witness never notices.
        for op in self.ops:
            handle = op.handle
            if op.tenant == "witness":
                assert handle is not None and handle.completed, "witness op disturbed"
            if op.expected is not None and handle.completed:
                world = len(op.expected)
                for rank, (buf, want) in enumerate(zip(op.bufs[world:], op.expected)):
                    np.testing.assert_array_equal(buf.view(), want, err_msg=f"rank {rank}")
        # One trace per collective that reached the service, closed once
        # with its fate; the metrics and the rendered spans agree.
        hub = deployment.telemetry()
        causal = hub.causal
        assert causal.live_traces() == []
        assert causal.traces_closed == causal.traces_started
        closed = {t.trace_id: t for t in causal.closed_traces()}
        assert len(closed) == len(causal.closed_traces())
        for op in self.ops:
            instance = op.handle.instance if op.handle is not None else None
            if instance is not None:
                trace = instance.trace
                assert closed.get(trace.trace_id) is trace
                assert len(trace.attempts) == instance.attempts
                assert trace.status == (TRACE_COMPLETED if instance.completed else TRACE_ABORTED)
        total = {name: c.total() for name, c in hub.metrics.counters().items()}
        issued = total.get("mccs_collectives_issued_total", 0)
        assert issued == causal.traces_started
        assert issued == total.get("mccs_collectives_completed_total", 0) + total.get(
            "mccs_collectives_aborted_total", 0)
        spans = [s for s in hub.spans if s.category in ("collective", "phase")]
        assert [s.name for s in spans if s.end is None] == []
        assert sum(s.category == "collective" for s in spans) == len(closed)
        # Membership: elastic commits and dead hosts, nothing else.
        self.absorb_changes()
        dead = self.dead_hosts
        survivors = [g for g in self.members if self.cluster.gpu(g).host_id not in dead]
        live = self.live()
        if live.aborted:
            assert isinstance(live.abort_error, ReproError)
            assert len(survivors) < MIN_WORLD, (
                f"aborted with {survivors} alive: {live.abort_error}"
            )
        else:
            assert [g.global_id for g in live.gpus] == survivors
            assert live.world >= MIN_WORLD
        assert not deployment.communicator(self.wcomm.comm_id).aborted
        # Buffers: what the tenant holds is live on its service, what it
        # freed is gone from it (a crashed host's memory is gone anyway).
        owned, lost = set(), set()
        for host, service in deployment.services.items():
            (lost if host in self.dead_hosts else owned).update(service.memory.allocations())
        assert set(self.buffers) - lost <= owned
        assert not self.freed & owned
        # No leak: a live service holds only buffers a tenant holds.
        held = set(self.buffers) | {buf.buffer_id for op in self.ops for buf in op.bufs}
        assert owned <= held, owned - held


#: Tier-1 replays a fixed derandomized set; under ``--hypothesis-profile
#: chaos`` the profile's fresh draws apply.
EXPLORE = settings.default is settings.get_profile("chaos")
TestControlPlaneChaos = ChaosMachine.TestCase
TestControlPlaneChaos.settings = settings(
    settings.default if EXPLORE else settings(derandomize=True, max_examples=100),
    stateful_step_count=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Defects the machine found, as it shrank them (the last four cut down
#: by hand): each replays in tier-1.
REGRESSIONS = {
    # Recovery gave up on a communicator an upgrade was draining; the
    # drain's barrier (no timeout) never resolved, so the upgrade hung.
    "upgrade_ends_when_a_drained_comm_aborts": ("testbed", [
        ("host_crash", 0), ("settle",), ("shrink", 0), ("settle",),
        ("host_crash", 1), ("upgrade", 1)]),
    # A joiner's host crashed mid-drain, after its heartbeat miss: the
    # grow committed a dead rank no monitor would report again.
    "grow_fails_when_the_joiner_dies_before_cutover": ("two_region", [
        ("reconfigure", None), ("grow", 1), ("host_crash", 17)]),
    # A superseded repair attempt's failed drain counted as a fresh
    # attempt: two service crashes aborted a communicator, all ranks alive.
    "stale_repair_drains_spend_no_attempt": ("testbed", [
        ("subject_collective", 256 * KB), ("grow", 0), ("service_crash", 0),
        ("advance", 0.02), ("service_crash", 0)]),
    # A collective queued through a service outage met its aborted
    # communicator on reissue, and the shim raised out of the event loop.
    "reissue_onto_an_aborted_comm_fails_typed": ("two_region", [
        ("host_crash", 1), ("settle",), ("shrink", 0), ("settle",), ("host_crash", 56),
        ("service_crash", 0), ("subject_collective", 256 * KB)]),
    # A shrink drained while a host crash cost the subject a rank; it
    # then cut over onto recovery's survivors, planned for a larger world,
    # to one rank (found with the cutover's epoch check removed).
    "shrink_planned_before_a_lost_rank_fails": ("testbed", [
        ("shrink", 0), ("settle",), ("shrink", 0), ("host_crash", 0)]),
    # A tenant destroyed a communicator whose drain barrier was in flight
    # (a grow's, a shrink's or an upgrade's): the session reached the
    # unregistered ranks and a KeyError escaped the event loop.
    "destroy_mid_grow_fails_the_grow": ("testbed", [
        ("create_extra", 0), ("change_extra", 0, True), ("destroy_extra",)]),
    "destroy_mid_shrink_fails_the_shrink": ("testbed", [
        ("create_extra", 0), ("change_extra", 0, False), ("destroy_extra",)]),
    "destroy_mid_upgrade_ends_the_upgrade": ("testbed", [
        ("create_extra", 0), ("upgrade", 0), ("destroy_extra",)]),
}


@pytest.mark.parametrize("name", sorted(REGRESSIONS))
def test_shrunk_regression(name):
    fabric, steps = REGRESSIONS[name]
    state = ChaosMachine()
    state.setup(fabric)
    for step, *args in steps:
        getattr(state, step)(*args)
    state.teardown()
