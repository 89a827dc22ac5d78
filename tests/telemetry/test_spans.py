"""Spans are export records; the hub's window renders them."""

from repro.cluster.specs import testbed_cluster
from repro.core.deployment import MccsDeployment
from repro.telemetry import Span


def test_span_to_dict_shape():
    span = Span(7, "op", 0.0, end=1.0, category="collective", parent_id=3,
                attrs={"app": "A"}, events=[("e", 0.5, {"rank": 1})])
    d = span.to_dict()
    assert d["span_id"] == 7
    assert d["parent_id"] == 3
    assert d["category"] == "collective"
    assert d["attrs"] == {"app": "A"}
    assert d["end"] == 1.0 and Span(1, "op", 0.0).to_dict()["end"] is None
    assert d["events"] == [{"name": "e", "time": 0.5, "attrs": {"rank": 1}}]


def reconfigured(*rings):
    """The hub of a deployment that moved one 3-rank communicator through
    ``rings``, one finished reconfiguration each."""
    cluster = testbed_cluster()
    deployment = MccsDeployment(cluster)
    gpus = [cluster.hosts[h].gpus[0] for h in range(3)]
    comm = deployment.create_communicator("app", gpus, datapath_tag="app")
    for ring in rings:
        deployment.reconfigure(comm.comm_id, ring=ring)
        deployment.run()
    return deployment.telemetry()


def test_window_assigns_deterministic_ids():
    hub = reconfigured([2, 1, 0], [0, 2, 1])
    assert [s.span_id for s in hub.spans] == [1, 2, 3, 4]
    # A fresh hub starts over — exports are reproducible run to run.
    assert [s.span_id for s in reconfigured([2, 1, 0]).spans] == [1, 2]
    # A rendering, not a store: every read builds fresh records.
    assert next(iter(hub.spans)) is not next(iter(hub.spans))


def test_window_links_children_to_their_root():
    root, barrier = reconfigured([2, 1, 0]).spans
    assert root.parent_id is None and barrier.parent_id == root.span_id
    assert (root.category, barrier.category, barrier.name) == (
        "reconfig", "reconfig", "barrier"
    )
    assert root.start == barrier.start <= barrier.end <= root.end


def test_window_is_bounded(monkeypatch):
    """Three reconfigurations through a two-session ring: the window shows
    the last two (ids from 1 again) and counts the third."""
    monkeypatch.setattr("repro.telemetry.hub.SESSIONS_KEPT", 2)
    hub = reconfigured([2, 1, 0], [0, 2, 1], [1, 0, 2])
    assert [(s.span_id, s.parent_id, s.name) for s in hub.spans] == [
        (1, None, "reconfig comm0 v1->v2"),
        (2, 1, "barrier"),
        (3, None, "reconfig comm0 v2->v3"),
        (4, 3, "barrier"),
    ]
    assert len(hub.sessions) == 2 and hub.spans.evicted == 1


def test_closed_trace_keeps_annotation_values_not_dicts():
    """A trace stores its annotations as value tuples; ``events``,
    ``to_dict`` and the span rendering read exactly what the stored
    ``(now, kind, attrs)`` dicts used to give."""
    from repro.netsim.engine import FlowSimulator
    from repro.netsim.topology import Topology
    from repro.telemetry import collective_spans
    from repro.telemetry.causal import CausalTracer

    tracer = CausalTracer(FlowSimulator(Topology("empty")))
    traces = []
    for seq in range(2):
        trace = tracer.open(0.0, tenant="A", comm_id="c0", seq=seq,
                            kind="allreduce", nbytes=64)
        trace.annotate(0.1, "held_by_reconfig", rank=1, gpu=3)
        trace.annotate(0.2, "rank_launch", rank=0, version=2)
        trace.annotate(0.2, "rank_launch", rank=1, version=2)
        trace.annotate(0.3, "first_flow_start")
        trace.new_attempt(0.4)
        trace.annotate(0.5, "rank_failed", rank=1, error="boom")
        tracer.close(trace, 0.6, "completed", reason="done")
        traces.append(trace)
    attrs = [{"rank": 1, "gpu": 3}, {"rank": 0, "version": 2}, {"rank": 1, "version": 2},
             {}, {"attempt": 2}, {"rank": 1, "error": "boom"}, {"reason": "done"}]
    times = [0.1, 0.2, 0.2, 0.3, 0.4, 0.5, 0.6]
    kinds = ["held_by_reconfig", "rank_launch", "rank_launch", "first_flow_start",
             "retry", "rank_failed", "completed"]
    first, second = traces
    assert not any(isinstance(v, dict) for event in first._events for v in event)
    # One key tuple per distinct attribute set, shared across traces.
    assert first._events[1][2] is first._events[2][2] is second._events[1][2]
    assert first.events == list(zip(times, kinds, attrs))
    assert first.to_dict()["events"] == [
        {"time": t, "kind": k, "attrs": a} for t, k, a in zip(times, kinds, attrs)
    ]
    root, *phases = collective_spans([first])
    assert root.events == list(zip(kinds, times, attrs)) + [("last_flow_end", 0.6, {})]
    assert [(s.name, s.start, s.end) for s in phases] == [
        ("queued", 0.0, 0.2), ("launch", 0.2, 0.3), ("network", 0.3, 0.4),
        ("queued", 0.4, 0.6),
    ]
