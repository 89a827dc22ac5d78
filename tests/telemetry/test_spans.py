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
