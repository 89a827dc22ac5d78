"""Reconfiguration spans are rendered from the session records.

A reconfiguration is kept once, as its :class:`ReconfigSession` in the
hub's session ring; its root span, ``barrier`` child and instants are
drawn from that record at export time, the way collective spans are drawn
from causal trees.  The goldens under ``data/golden_render_*.json`` were
captured while the session still wrote its spans into a span store; each
holds ``to_chrome_trace()`` and the ``"spans"`` section of ``to_json()``
of one scenario, and the rendering must reproduce both byte for byte.
They were recaptured once when telemetry stopped scheduling a
link-sampling tick, which had held ``run()`` open 0.25 s past each
collective: only times moved (and events of one timestamp re-sorted).
"""

import json
from pathlib import Path

import pytest

from repro.cluster.specs import testbed_cluster
from repro.core.deployment import MccsDeployment
from repro.netsim.units import MB

DATA = Path(__file__).parent / "data"


def three_rank_app(deployment, cluster, app="app"):
    gpus = [cluster.hosts[h % 4].gpus[h // 4] for h in range(3)]
    comm = deployment.create_communicator(app, gpus, datapath_tag=app)
    client = deployment.connect(app)
    return comm, client, client.adopt_communicator(comm.comm_id)


def no_barrier():
    """The Figure 4 hazard mode: no barrier child, ranks apply on arrival."""
    cluster = testbed_cluster()
    deployment = MccsDeployment(cluster)
    comm, client, handle = three_rank_app(deployment, cluster)
    client.all_reduce(handle, 8 * MB)
    deployment.run()
    deployment.reconfigure(
        comm.comm_id, ring=[2, 1, 0], delays=[0.004, 0.0, 0.002],
        barrier_enabled=False,
    )
    client.all_reduce(handle, 8 * MB)
    deployment.run()
    return deployment


def barrier_timeout():
    """Rank 0 hears of the command only after the barrier gave up."""
    cluster = testbed_cluster()
    deployment = MccsDeployment(cluster)
    comm, client, handle = three_rank_app(deployment, cluster)
    client.all_reduce(handle, 8 * MB)
    deployment.run()
    failed = []
    deployment.reconfigure(
        comm.comm_id, ring=[2, 1, 0], delays=[0.050, 0.0, 0.001],
        barrier_timeout=0.010, on_failed=failed.append,
    )
    client.all_reduce(handle, 8 * MB)
    deployment.run()
    assert len(failed) == 1 and failed[0].failed
    return deployment


def in_flight():
    """Exported mid-run: one session waits on its barrier, one (barrier
    off) has been applied by some ranks only."""
    cluster = testbed_cluster()
    deployment = MccsDeployment(cluster)
    waiting, client, handle = three_rank_app(deployment, cluster, "a")
    gpus = [cluster.hosts[h].gpus[1] for h in range(4)]
    partial = deployment.create_communicator("b", gpus, datapath_tag="b")
    client.all_reduce(handle, 8 * MB)
    deployment.run()
    deployment.reconfigure(waiting.comm_id, ring=[2, 1, 0], delays=[0.010, 0.0, 0.0])
    deployment.reconfigure(
        partial.comm_id, ring=[3, 2, 1, 0], delays=[0.0, 0.001, 0.020, 0.020],
        barrier_enabled=False,
    )
    client.all_reduce(handle, 8 * MB)
    deployment.run(until=cluster.sim.now + 0.005)
    return deployment


def two_sessions():
    """Two reconfigurations of one communicator, collectives between."""
    cluster = testbed_cluster()
    deployment = MccsDeployment(cluster)
    comm, client, handle = three_rank_app(deployment, cluster)
    client.all_reduce(handle, 8 * MB)
    deployment.run()
    deployment.reconfigure(comm.comm_id, ring=[2, 1, 0], delays=[0.010, 0.0, 0.0])
    deployment.run(until=cluster.sim.now + 0.001)
    client.all_reduce(handle, 8 * MB)
    deployment.run()
    client.all_reduce(handle, 64 * 1024)
    deployment.reconfigure(comm.comm_id, ring=[0, 2, 1], delays=[0.0, 0.003, 0.0])
    client.all_reduce(handle, 8 * MB)
    deployment.run()
    return deployment


SCENARIOS = {
    "no_barrier": no_barrier,
    "barrier_timeout": barrier_timeout,
    "in_flight": in_flight,
    "two_sessions": two_sessions,
}


def exported(deployment) -> str:
    hub = deployment.telemetry()
    return json.dumps(
        {"chrome_trace": hub.to_chrome_trace(), "spans": hub.to_json()["spans"]},
        indent=1, sort_keys=True,
    ) + "\n"


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_render_matches_the_stored_spans(name):
    golden = (DATA / f"golden_render_{name}.json").read_text()
    assert exported(SCENARIOS[name]()) == golden


def test_goldens_cover_their_shapes():
    """Each golden shows the shape it is named after."""

    def reconfig_spans(name):
        records = json.loads((DATA / f"golden_render_{name}.json").read_text())
        return [r for r in records["spans"]["records"] if r["category"] == "reconfig"]

    [root] = reconfig_spans("no_barrier")
    assert not root["attrs"]["barrier_enabled"] and root["end"] is not None
    root, barrier = reconfig_spans("barrier_timeout")
    assert [e["name"] for e in root["events"]] == ["barrier_timeout"]
    assert root["events"][0]["attrs"]["missing"] == [0]
    assert barrier["end"] == root["end"]
    spans = reconfig_spans("in_flight")
    assert [s["end"] for s in spans] == [None, None, None]
    assert [e["name"] for e in spans[2]["events"]] == ["rank_applied"] * 2
    roots = [s for s in reconfig_spans("two_sessions") if s["parent_id"] is None]
    assert [s["attrs"]["session"] for s in roots] == [0, 1]


def test_export_counts_what_the_window_dropped():
    """600 collectives, a causal ring of 512: the export says 88 are gone."""
    cluster = testbed_cluster()
    deployment = MccsDeployment(cluster)
    client = deployment.connect("app")
    comm = client.create_communicator(list(cluster.gpus))
    for _ in range(600):
        client.all_reduce(comm, 64 * 1024)
    deployment.run()
    hub = deployment.telemetry()
    spans = hub.to_json()["spans"]
    roots = [s for s in spans["records"] if s["category"] == "collective"]
    assert len(roots) == 512
    assert spans["evicted"] == hub.spans.evicted == 88
    assert "(evicted 88)" in next(
        line for line in hub.summary_lines() if line.startswith("spans")
    )
