"""Collective spans are a view over the causal trees, not a store.

Four angles on the same claim:

* **The view equals what used to be stored.**  ``data/
  golden_reconfig_chrome_trace.json`` is ``to_chrome_trace()`` of the
  scripted scenario below, captured at the last commit that *stored*
  collective spans (19081fa: ``SpanRecorder.begin`` in ``handle_collective``,
  phase children opened and closed by hand).  The rendered export must
  reproduce it event for event — names, categories, ``ts``/``dur``, attrs,
  instants, causal flow arrows — modulo ``span_id``/``parent_id`` numbering,
  with the parent/child links intact.  Only the instants in ``ADDED`` may be
  new: annotations the causal tree always had and the stored spans never
  showed.
* **Structure**: what a retried collective renders to.
* **A property** over random issue/queue/reconfigure/abort scripts: phases
  tile their root, and the §4.3 ``TraceRecord``s agree with the tenant's
  handles.
* **Hygiene**: the service core neither names spans nor stores any.
"""

import ast
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.cluster.specs import testbed_cluster
from repro.collectives.types import Collective
from repro.core.communicator import CollectiveInstance, ServiceCommunicator
from repro.core.controller import CentralManager
from repro.core.deployment import MccsDeployment
from repro.core.strategy import default_strategy
from repro.core.transport import TrafficGateManager
from repro.faults import FaultInjector
from repro.netsim.errors import CommunicatorError, ReconfigurationError
from repro.netsim.units import MB
from repro.telemetry import (
    EVENT_BARRIER_RESOLVED,
    EVENT_FIRST_FLOW_START,
    EVENT_RETRY,
    TelemetryHub,
    collective_spans,
)

GOLDEN = Path(__file__).parent / "data" / "golden_reconfig_chrome_trace.json"
CORE = Path(repro.__file__).parent / "core"

#: Instants the rendered view shows that the stored spans did not: (name,
#: category of the span they sit on).  All four were causal-tree
#: annotations before; the reconfiguration span's own ``barrier_resolved``
#: (category ``reconfig``) is in the golden and not exempt.
ADDED = {
    (EVENT_BARRIER_RESOLVED, "collective"),
    (EVENT_RETRY, "collective"),
    ("failure_detected", "collective"),
    ("recovery_attempt", "collective"),
}


def flight_dump(deployment, op):
    deployment.telemetry().flight.trigger(
        "manual", deployment.sim.now, trace=op.instance.trace
    )


def reconfig_scenario(dump=flight_dump) -> MccsDeployment:
    """Two AllReduces around one reconfiguration with a real stall — the
    scenario of ``test_reconfig_barrier_span_integrity`` — then a flight
    dump about the held collective, so the export has a causal flow arrow
    (``dump`` is a parameter because the golden was captured through the
    parent's ``trigger(trace_id=...)``)."""
    cluster = testbed_cluster()
    deployment = MccsDeployment(cluster)
    gpus = [cluster.hosts[h % 4].gpus[h // 4] for h in range(3)]
    comm = deployment.create_communicator("app", gpus, datapath_tag="app")
    client = deployment.connect("app")
    handle = client.adopt_communicator(comm.comm_id)
    client.all_reduce(handle, 8 * MB)
    deployment.run()
    # Ranks 1,2 hear about the reconfig first and hold; rank 0 launches
    # the next collective, forcing a real barrier stall (Figure 4).
    deployment.reconfigure(comm.comm_id, ring=[2, 1, 0], delays=[0.010, 0.0, 0.0])
    deployment.run(until=cluster.sim.now + 0.001)
    held = client.all_reduce(handle, 8 * MB)
    deployment.run()
    dump(deployment, held)
    return deployment


def rendered(hub) -> str:
    return json.dumps(hub.to_chrome_trace(), indent=1, sort_keys=True) + "\n"


def canonical(trace: dict) -> list:
    """Trace events with span ids replaced by what they point at."""
    events = trace["traceEvents"]
    spans = {
        e["args"]["span_id"]: (e["name"], e["cat"], e["ts"], e["dur"])
        for e in events
        if e["ph"] == "X"
    }
    assert len(spans) == sum(e["ph"] == "X" for e in events), "span ids collide"
    out = []
    for event in events:
        event = json.loads(json.dumps(event))
        args = event.get("args", {})
        if "span_id" in args:
            args["span_id"] = spans[args["span_id"]]
        if "parent_id" in args:
            args["parent_id"] = spans[args["parent_id"]]
        out.append(json.dumps(event, sort_keys=True))
    return sorted(out)


def test_view_reproduces_the_stored_spans_of_the_parent():
    golden = json.loads(GOLDEN.read_text())
    now = json.loads(rendered(reconfig_scenario().telemetry()))
    added = [
        e for e in now["traceEvents"]
        if e["ph"] == "i" and (e["name"], e["cat"]) in ADDED
    ]
    kept = [e for e in now["traceEvents"] if e not in added]
    assert canonical({"traceEvents": kept}) == canonical(golden)
    # The one addition here: the barrier pass, on the collective it held.
    assert [(e["name"], e["args"]["max_seq"]) for e in added] == [
        (EVENT_BARRIER_RESOLVED, 1)
    ]
    assert now["displayTimeUnit"] == golden["displayTimeUnit"]


def test_golden_is_worth_its_name():
    """It has the held collective, all three phases, and flow arrows."""
    events = json.loads(GOLDEN.read_text())["traceEvents"]
    names = [e["name"] for e in events]
    assert names.count("held_by_reconfig") == 2
    assert {"queued", "launch", "network", "barrier"} <= set(names)
    assert any(e["ph"] == "s" for e in events)
    assert any(e["ph"] == "f" for e in events)


# ----------------------------------------------------------------------
# retried collectives
# ----------------------------------------------------------------------
def spans_of(hub, seq):
    """(root, children) of the collective ``seq`` in the rendered view."""
    spans = hub.exported_spans()
    root = next(
        s for s in spans if s.category == "collective" and s.attrs["seq"] == seq
    )
    return root, [s for s in spans if s.parent_id == root.span_id]


def test_retried_collective_renders_every_attempt():
    """The link-down retry scenario of ``tests/core/test_recovery.py``."""
    cluster = testbed_cluster()
    deployment = MccsDeployment(cluster)
    manager = CentralManager(deployment)
    injector = FaultInjector(
        cluster, deployment.telemetry(), deployment=deployment
    )
    deployment.enable_recovery(heartbeat_until=1.0)
    gpus = [cluster.hosts[h].gpus[0] for h in range(4)]
    state = manager.admit("A", gpus)
    client = deployment.connect("A")
    comm = client.adopt_communicator(state.comm_id)

    def strike():
        links = sorted(
            {l for f in cluster.sim.active_flows() for l in f.links if "spine" in l}
        )
        injector.fail_link(links[0])

    cluster.sim.call_in(0.004, strike)
    big = client.all_reduce(comm, 64 * MB)
    deployment.run()
    hub = deployment.telemetry()
    instance = big.instance
    assert big.completed and instance.attempts == 2

    root, children = spans_of(hub, big.seq)
    assert [c.name for c in children] == [
        "queued", "launch", "network", "queued", "launch", "network",
    ]
    # One closed network child per attempt; the failed one ends at the retry.
    first, final = (c for c in children if c.name == "network")
    retry = root.event_time(EVENT_RETRY)
    assert first.start == root.event_times(EVENT_FIRST_FLOW_START)[0]
    assert first.end == retry == instance.trace.attempts[1].t_start
    assert final.start == instance.start_time and final.end == root.end
    # Phases tile the root even across the retry.
    assert children[0].start == root.start and children[-1].end == root.end
    assert all(a.end == b.start for a, b in zip(children, children[1:]))
    # Nothing is left open once the simulation quiesces.
    assert all(s["end"] is not None for s in hub.to_json()["spans"]["records"])

    # The §4.3 record reads the final attempt, like the instance and like
    # the critical path (failed attempts and back-off are queueing).
    [record] = deployment.trace(comm.comm_id).records
    assert record.start_time == instance.start_time > retry
    assert record.issue_time == instance.issue_time
    assert record.end_time == instance.end_time
    report = hub.causal.critical_path(instance.trace)
    assert record.queue_delay() <= report.queue_s
    assert report.queue_s > retry - instance.issue_time


def test_trace_record_without_a_deployment_reads_the_same():
    """A directly constructed communicator (no deployment, no frontend)
    writes the same six scalars from the instance's own timestamps."""
    cluster = testbed_cluster()
    hub = TelemetryHub(cluster.sim)
    gpus = [cluster.hosts[h].gpus[0] for h in range(4)]
    comm = ServiceCommunicator(
        cluster, 0, "A", gpus, default_strategy(4, 1), hub,
        TrafficGateManager(cluster.sim, hub),
    )
    instance = CollectiveInstance(
        comm=comm, seq=0, kind=Collective.ALL_REDUCE, out_bytes=8 * MB,
        issue_time=cluster.sim.now,
        trace=hub.causal.open(
            cluster.sim.now, tenant="A", comm_id=f"comm{comm.comm_id}", seq=0,
            kind="all_reduce", nbytes=8 * MB,
        ),
    )
    comm.inflight[0] = instance
    for rank in range(4):
        instance.rank_launch(rank, comm.strategy)
    cluster.sim.run(until=0.002)
    first_start = instance.start_time
    assert first_start is not None and comm.trace.records == []
    instance.reset_for_retry()
    cluster.sim.run(until=0.003)
    for rank in range(4):
        instance.rank_launch(rank, comm.strategy)
    cluster.sim.run()
    assert instance.completed and instance.trace.closed
    [record] = comm.trace.records
    assert record.start_time == instance.start_time > 0.003 > first_start
    assert (record.seq, record.kind, record.out_bytes) == (
        0, Collective.ALL_REDUCE, 8 * MB
    )
    assert (record.issue_time, record.end_time) == (0.0, instance.end_time)
    assert record.duration() == pytest.approx(
        record.queue_delay() + record.network_duration()
    )


# ----------------------------------------------------------------------
# property: phases tile the root; TraceRecords agree with the handles
# ----------------------------------------------------------------------
STEP = st.one_of(
    st.tuples(st.just("issue"), st.integers(0, 1), st.sampled_from([64 * 1024, 2 * MB])),
    st.tuples(st.just("run"), st.integers(1, 40)),  # x 0.1 ms
    st.tuples(st.just("reconfigure"), st.integers(0, 1), st.integers(0, 5)),
    st.tuples(st.just("abort"), st.integers(0, 1)),
)


def merged(intervals):
    out = []
    for start, end in sorted(intervals):
        if out and start <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], end))
        else:
            out.append((start, end))
    return out


@given(script=st.lists(STEP, min_size=1, max_size=14))
@settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_phases_tile_and_records_match_handles(script):
    cluster = testbed_cluster()
    deployment = MccsDeployment(cluster)
    gpus = list(cluster.gpus)
    comms = [
        deployment.create_communicator("a", gpus[:3], datapath_tag="a"),
        deployment.create_communicator("b", gpus[3:7], datapath_tag="b"),
    ]
    clients = [deployment.connect("a"), deployment.connect("b")]
    handles = [c.adopt_communicator(s.comm_id) for c, s in zip(clients, comms)]
    ops = [[], []]
    for step in script:
        which = step[1] if step[0] != "run" else None
        if step[0] == "run":
            deployment.run(until=cluster.sim.now + step[1] * 1e-4)
        elif comms[which].aborted:
            continue
        elif step[0] == "issue":
            ops[which].append(clients[which].all_reduce(handles[which], step[2]))
        elif step[0] == "reconfigure":
            comm = comms[which]
            order = list(range(comm.world))
            delays = [0.0] * comm.world
            delays[step[2] % comm.world] = 0.0005
            try:
                deployment.reconfigure(
                    comm.comm_id, ring=order[1:] + order[:1], delays=delays
                )
            except ReconfigurationError:
                pass  # one reconfiguration per communicator at a time
        else:
            comms[which].abort(CommunicatorError("scripted abort"))
    deployment.run()
    hub = deployment.telemetry()
    assert hub.causal.live_traces() == []

    # Every closed trace renders to a root tiled by its phases.
    spans = collective_spans(hub.causal.closed_traces())
    roots = [s for s in spans if s.category == "collective"]
    assert len(roots) == sum(map(len, ops))
    for root in roots:
        phases = [s for s in spans if s.parent_id == root.span_id]
        assert phases[0].start == root.start and phases[-1].end == root.end
        assert all(a.end == b.start for a, b in zip(phases, phases[1:]))
        assert all(p.start <= p.end for p in phases)
        assert [p.name for p in phases] == ["queued", "launch", "network"][: len(phases)]

    # The §4.3 records are the handles' timestamps, one per collective.
    for comm, issued in zip(comms, ops):
        trace = deployment.trace(comm.comm_id)
        assert [r.seq for r in trace.records] == [op.seq for op in issued]
        for record, op in zip(trace.records, issued):
            inst = op.instance
            assert (record.issue_time, record.start_time, record.end_time) == (
                inst.issue_time, inst.start_time, inst.end_time
            )
            assert record.duration() == pytest.approx(
                record.queue_delay() + record.network_duration()
            )
        assert trace.busy_intervals() == merged(
            (
                op.instance.start_time
                if op.instance.start_time is not None
                else op.instance.issue_time,
                op.instance.end_time,
            )
            for op in issued
        )


# ----------------------------------------------------------------------
# hygiene
# ----------------------------------------------------------------------
def test_core_does_not_name_spans():
    """Only the reconfiguration session begins spans; the rest of the
    service core writes the causal tree and nothing else."""
    offenders = []
    for path in sorted(CORE.rglob("*.py")):
        if path.name == "reconfig.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            named = (
                node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else node.name if isinstance(node, ast.alias)
                else None
            )
            if named in ("Span", "SpanRecorder") or (
                named == "spans" and isinstance(node, ast.Attribute)
            ):
                offenders.append(f"{path.name}:{node.lineno} {named}")
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith(
                "telemetry.spans"
            ):
                offenders.append(f"{path.name}:{node.lineno} imports telemetry.spans")
    assert offenders == []


def test_collectives_store_no_spans():
    cluster = testbed_cluster()
    deployment = MccsDeployment(cluster)
    client = deployment.connect("app")
    comm = client.create_communicator(list(cluster.gpus))
    for _ in range(50):
        client.all_reduce(comm, 64 * 1024)
    deployment.run()
    hub = deployment.telemetry()
    assert len(hub.spans) == 0 and hub.spans.evicted == 0
    # ... and the view still has all fifty, four spans each.
    assert len(hub.exported_spans()) == 200
