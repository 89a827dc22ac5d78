"""The engine core against the deleted legacy core, and its own surface.

Until PR 16 ``FlowSimulator`` shipped a second, legacy core (full solver
rebuild + full completion scans per event) as the reference
implementation.  Before it was deleted, its output on the scenarios
below — the Figure 7 reconfiguration timeline, a Figure 8 multi-tenant
grid, a link-churn script and a deployment-level failover — was captured
into ``golden_legacy_engine.json`` (see its ``_provenance``); the
surviving core must keep matching it: fig07/fig08 within ``rel=1e-9``,
churn and failover bit-identically.  The brute-force oracle for
arbitrary scenarios lives in ``test_engine_reference.py``.
"""

import json
from pathlib import Path

import pytest

from repro.core.transport import TrafficGateManager, WindowSchedule
from repro.netsim.engine import FlowSimulator, SimObserver
from repro.netsim.errors import LinkDownError
from repro.netsim.fabric import MultiPodSpec, multi_pod_clos
from repro.netsim.routing import clos_path
from repro.netsim.topology import Topology
from repro.telemetry import TelemetryHub

GOLDEN = json.loads(
    Path(__file__).with_name("golden_legacy_engine.json").read_text()
)

#: Every kind ``RecoveryManager._log`` writes to the hub's event log (the
#: golden's ``retry`` case pinned the manager's own audit list, which was
#: entry for entry this).
RECOVERY_EVENTS = (
    "failure_detected",
    "recovery_attempt",
    "recovery_succeeded",
    "recovery_shrunk",
    "recovery_gave_up",
)


def _jsonable(value):
    """Tuples -> lists, exactly as the golden file stored them."""
    return json.loads(json.dumps(value))


def line_topo(cap=8.0):
    topo = Topology()
    topo.add_node("a")
    topo.add_node("b")
    topo.add_link("a", "b", cap)
    return topo


# ----------------------------------------------------------------------
# the surviving core reproduces the legacy core on real scenarios
# ----------------------------------------------------------------------
def test_fig07_timeline_matches_legacy_golden():
    from repro.experiments.fig07_reconfig import run_fig07

    timeline = run_fig07(
        op_bytes=64 * 1024 * 1024,
        duration=6.0,
        bg_start=2.0,
        reconfig_at=3.0,
    )
    golden = GOLDEN["fig07"]
    assert len(timeline.points) == len(golden["points"]) > 0
    for (old_time, old_bw), new in zip(golden["points"], timeline.points):
        assert new.time == pytest.approx(old_time, rel=1e-9, abs=1e-9)
        assert new.algbw_gBps == pytest.approx(old_bw, rel=1e-9)
    assert list(timeline.ring_after) == golden["ring_after"]
    assert timeline.reconfig_done == pytest.approx(
        golden["reconfig_done"], rel=1e-9
    )


def _fig08_speedup_grid():
    from repro.experiments.fig08_multi_app import run_fig08

    results = run_fig08(
        setups=("setup1",),
        trials=1,
        op_bytes=32 * 1024 * 1024,
        duration=0.8,
        warmup=0.2,
    )
    return [(r.setup, r.system, r.app_id, r.stat.mean) for r in results]


def test_fig08_grid_matches_legacy_golden():
    grid = _fig08_speedup_grid()
    golden = GOLDEN["fig08_setup1"]
    assert len(grid) == len(golden)
    for old, new in zip(golden, grid):
        assert list(new[:3]) == old[:3]
        assert new[3] == pytest.approx(old[3], rel=1e-9)


def _fig11_speedup_distributions():
    from repro.experiments.fig11_simulation import run_fig11

    outcome = run_fig11(
        placement="random", num_jobs=4, iterations=6, channels=2, seed=0
    )
    return [(s, tuple(outcome.speedups(s))) for s in ("or", "or+ffa")]


def test_fig11_speedups_repeat_exactly_under_pinned_ids():
    """Every id is its cluster's or deployment's, so two runs in one
    process draw the same paths."""
    first = _fig11_speedup_distributions()
    assert _fig11_speedup_distributions() == first  # ``==`` on floats


# ----------------------------------------------------------------------
# batched injection: one add_flows == one add_flow per transfer, in order
# ----------------------------------------------------------------------
#: Tiny two-pod fabric: 2 pods x 2 leaves x 2 hosts x 2 NICs (16 GPUs) —
#: pod-local routes that share nothing plus core-crossing ones that
#: couple the pods.
TINY_SPEC = MultiPodSpec(
    pods=2,
    spines_per_pod=2,
    leaves_per_pod=2,
    hosts_per_leaf=2,
    nics_per_host=2,
    core_switches=2,
)


def _tiny_sim():
    return FlowSimulator(multi_pod_clos(TINY_SPEC).topology)


def _pod_local_path(pod, host=0, nic=0, peer_nic=1):
    base = pod * TINY_SPEC.hosts_per_pod
    return clos_path(
        TINY_SPEC, base + host, nic, base + host + 1, peer_nic, spine=0, core=0
    )


def test_add_flows_equivalent_to_repeated_add_flow():
    path = _pod_local_path(0)
    batched, loose = _tiny_sim(), _tiny_sim()
    flows_b = batched.add_flows([(3e8, path, None)] * 4, job_id="j")
    flows_l = [loose.add_flow(3e8, path, job_id="j") for _ in range(4)]
    assert len(flows_b) == 4
    batched.run()
    loose.run()
    assert [f.end_time for f in flows_b] == [f.end_time for f in flows_l]


def _mixed_route_batch():
    """One launch batch over every kind of route mix the solver must get
    right: a channel fan-out (same path object), the same route again
    after a different one, an equal-but-not-identical path tuple, and an
    inter-pod route that couples both pods' flows."""
    local0, local1 = _pod_local_path(0), _pod_local_path(1)
    base = TINY_SPEC.hosts_per_pod
    bridge = clos_path(TINY_SPEC, 0, 0, base + 1, 1, spine=0, core=0)
    return [
        (3e8, local0, 0),
        (3e8, local0, 1),
        (5e8, local1, 0),
        (2e8, tuple(list(local0)), 2),
        (4e8, bridge, 0),
        (4e8, bridge, 1),
        (1e8, local1, 1),
    ]


def test_mixed_route_batch_equals_per_flow_adds():
    batched, loose = _tiny_sim(), _tiny_sim()
    rates = []
    for sim in (batched, loose):
        sim.add_flow(6e8, _pod_local_path(1), job_id="other")  # bystander
    transfers = _mixed_route_batch()
    flows_b = batched.add_flows(transfers, job_id="j", weight=2.0)
    flows_l = [
        loose.add_flow(size, path, job_id="j", weight=2.0)
        for size, path, _channel in transfers
    ]
    for sim, flows in ((batched, flows_b), (loose, flows_l)):
        sim.run(until=0.001)
        sim._ensure_rates()
        rates.append([f.rate for f in flows])
        sim.run()
    assert [f.flow_id for f in flows_b] == [f.flow_id for f in flows_l]
    assert [f.flow_id for f in flows_b] == [f"flow{n}" for n in range(1, 8)]
    assert [f.channel for f in flows_b] == [t[2] for t in transfers]
    assert rates[0] == rates[1]  # bit-identical, not approx
    assert [f.end_time for f in flows_b] == [f.end_time for f in flows_l]
    assert batched.perf_counters() == loose.perf_counters()


def test_batch_is_all_or_nothing_on_a_down_link():
    sim = _tiny_sim()
    good, bad = _pod_local_path(0), _pod_local_path(1)
    sim.fail_link(bad[1])
    with pytest.raises(LinkDownError):
        sim.add_flows([(1e8, good, 0), (1e8, bad, 0), (1e8, good, 1)])
    assert sim.active_flow_count() == 0
    # Nothing was numbered either: ids stay dense in injection order.
    assert sim.add_flow(1e8, good).flow_id == "flow0"
    assert sim.add_flows([]) == []


# ----------------------------------------------------------------------
# cancellation: observers and gate managers see flows leave
# ----------------------------------------------------------------------
class _Recorder(SimObserver):
    def __init__(self):
        self.added = []
        self.completed = []
        self.cancelled = []

    def on_flows_added(self, flows, now):
        self.added.extend(f.flow_id for f in flows)

    def on_flows_completed(self, flows, now):
        self.completed.extend(f.flow_id for f in flows)

    def on_flow_cancelled(self, flow, now):
        self.cancelled.append((flow.flow_id, now))


def test_cancel_flow_notifies_observers():
    sim = FlowSimulator(line_topo())
    recorder = _Recorder()
    sim.add_observer(recorder)
    flow = sim.add_flow(100.0, ["a->b"])
    sim.run(until=1.0)
    assert flow.flow_id in sim._active
    sim.cancel_flow(flow)
    assert flow.flow_id not in sim._active
    assert recorder.cancelled == [(flow.flow_id, 1.0)]
    assert recorder.completed == []
    # Cancelling twice is a no-op, not a double notification.
    sim.cancel_flow(flow)
    assert len(recorder.cancelled) == 1
    # The network drains without the cancelled flow.
    assert sim.run() == pytest.approx(1.0)


def test_cancelled_flow_does_not_complete_or_stall():
    sim = FlowSimulator(line_topo(cap=8.0))
    done = []
    keeper = sim.add_flow(8.0, ["a->b"], on_complete=lambda f, t: done.append(t))
    doomed = sim.add_flow(8.0, ["a->b"], on_complete=lambda f, t: done.append(t))
    sim.schedule(0.5, lambda: sim.cancel_flow(doomed))
    sim.run()
    # keeper shared until t=0.5 (2 bytes left of 6) then ran alone.
    assert keeper.completed and not doomed.completed
    assert done == [pytest.approx(1.25)]


def test_gate_manager_forgets_cancelled_flows():
    sim = FlowSimulator(line_topo())
    gates = TrafficGateManager(sim, TelemetryHub(sim))
    flow = sim.add_flow(1e6, ["a->b"], job_id="appA")
    gates.register([flow])
    sim.cancel_flow(flow)
    # Installing a closed-window schedule must not touch the dead flow.
    closed = WindowSchedule(period=1.0, open_intervals=((0.9, 1.0),))
    gates.set_schedule("appA", closed)
    assert gates.gate_transitions == 0
    assert not flow.gated


# ----------------------------------------------------------------------
# perf counters
# ----------------------------------------------------------------------
def test_perf_counters():
    sim = FlowSimulator(line_topo())
    for _ in range(5):
        sim.add_flow(8.0, ["a->b"])
    sim.run()
    counters = sim.perf_counters()
    assert counters["flows_completed"] == 5
    assert counters["rate_recomputations"] >= 1
    assert counters["solver_full_rebuilds"] == 1  # initial build only
    assert counters["solver_delta_updates"] == 10  # 5 adds + 5 removals
    assert (
        counters["solver_rebuilds_avoided"]
        == counters["rate_recomputations"] - 1
    )
    assert counters["heap_pushes"] > 0
    assert counters["heap_invalidations"] > 0
    assert (counters["solver_scalar_solves"], counters["solver_memo_hits"]) == (1, 0)
    # The same batch again once the first drained: the solver has seen
    # the problem and answers it from its memo.
    sim.add_flows([(8.0, ["a->b"], None)] * 5)
    sim.run()
    counters = sim.perf_counters()
    assert counters["flows_completed"] == 10
    assert (counters["solver_scalar_solves"], counters["solver_memo_hits"]) == (2, 1)


def test_rate_recomputations_count_matches_dirty_transitions():
    # Semantics guard: one recomputation per dirty->clean transition —
    # the count the legacy core produced for this scenario, too.
    sim = FlowSimulator(line_topo())
    sim.add_flow(8.0, ["a->b"])
    sim.schedule(0.25, lambda: sim.add_flow(4.0, ["a->b"]))
    sim.run()
    assert sim.rate_recomputations == GOLDEN["rate_recomputations_staggered"]


# ----------------------------------------------------------------------
# link churn: fail/degrade/restore is bit-identical to the legacy core
# ----------------------------------------------------------------------
def diamond_topo(cap=8.0):
    topo = Topology()
    for node in ("a", "m1", "m2", "b"):
        topo.add_node(node)
    topo.add_link("a", "m1", cap)
    topo.add_link("m1", "b", cap)
    topo.add_link("a", "m2", cap)
    topo.add_link("m2", "b", cap)
    return topo


def _churn_scenario():
    """Flows through a diamond while one path flaps and one degrades."""
    sim = FlowSimulator(diamond_topo())
    log = []
    f1 = sim.add_flow(
        16.0, ["a->m1", "m1->b"],
        on_complete=lambda f, t: log.append(("done", f.flow_id, t)),
        on_fail=lambda f, t, err: log.append(("fail", f.flow_id, t, str(err))),
    )
    f2 = sim.add_flow(
        16.0, ["a->m2", "m2->b"],
        on_complete=lambda f, t: log.append(("done", f.flow_id, t)),
    )
    late = []
    sim.schedule(0.5, lambda: sim.fail_link("m1->b"))
    sim.schedule(0.7, lambda: sim.set_link_capacity("a->m2", 4.0))
    sim.schedule(0.9, lambda: sim.restore_link("m1->b"))

    def relaunch():
        late.append(
            sim.add_flow(
                8.0, ["a->m1", "m1->b"],
                on_complete=lambda f, t: log.append(("done", f.flow_id, t)),
            )
        )

    sim.schedule(0.9, relaunch)
    sim.schedule(1.1, lambda: sim.set_link_capacity("a->m2", 8.0))
    end = sim.run()
    counters = sim.perf_counters()
    return {
        "log": tuple(log),
        "end": end,
        "f1": (f1.failed, f1.remaining, f1.end_time),
        "f2": (f2.completed, f2.end_time),
        "late": [(f.completed, f.end_time) for f in late],
        "flows_failed": counters["flows_failed"],
        "flows_completed": counters["flows_completed"],
        "link_up": sim.link_is_up("m1->b"),
    }


def test_link_churn_matches_legacy_golden():
    result = _churn_scenario()
    # bit-identical, not just approximately
    assert _jsonable(result) == GOLDEN["churn"]
    assert result["flows_failed"] == 1
    assert result["f1"][0] and result["f2"][0]
    assert result["link_up"]


def test_fault_recovery_timeline_matches_legacy_golden():
    """A full deployment-level failover replays the legacy core's timeline."""
    import numpy as np

    from repro.cluster.specs import testbed_cluster
    from repro.core.controller import CentralManager
    from repro.core.deployment import MccsDeployment
    from repro.faults import FaultInjector

    cluster = testbed_cluster()
    deployment = MccsDeployment(cluster)
    recovery = deployment.enable_recovery(
        collective_deadline=0.25, heartbeat_until=1.0
    )
    manager = CentralManager(deployment)
    gpus = [cluster.hosts[h].gpus[0] for h in range(4)]
    state = manager.admit("A", gpus)
    client = deployment.connect("A")
    comm = client.adopt_communicator(state.comm_id)
    injector = FaultInjector(cluster, deployment.telemetry(), deployment=deployment)

    def strike():
        links = sorted(
            {
                link
                for flow in cluster.sim.active_flows()
                for link in flow.links
                if "spine" in link
            }
        )
        injector.fail_link(links[0])
        cluster.sim.call_in(0.05, lambda: injector.restore_link(links[0]))

    cluster.sim.call_in(0.004, strike)
    sends = [client.alloc(g, 256) for g in gpus]
    recvs = [client.alloc(g, 256) for g in gpus]
    for buf in sends:
        buf.view(np.float32)[:] = 2.0
    big = client.all_reduce(comm, 64 * 1024 * 1024)
    small = client.all_reduce(comm, 256, send=sends, recv=recvs)
    deployment.run()
    assert big.completed and small.completed
    assert all(np.allclose(r.view(np.float32), 8.0) for r in recvs)
    result = (
        big.instance.end_time,
        small.instance.end_time,
        big.instance.attempts,
        tuple(
            (e.time, e.kind)
            for e in recovery.telemetry.events.events()
            if e.kind in RECOVERY_EVENTS
        ),
    )
    assert _jsonable(result) == GOLDEN["retry"]
    assert result[2] >= 2  # the big collective really was retried
