"""Connection table tests (shared NCCL/MCCS transport substrate)."""

import pytest

from repro.cluster.specs import testbed_cluster
from repro.netsim.routing import EcmpSelector, RouteIdSelector, RouteMap
from repro.transport.connections import ConnectionTable, connection_key


@pytest.fixture
def cl():
    return testbed_cluster()


def test_intra_host_connection_uses_local_link(cl):
    table = ConnectionTable(cl, "t")
    conn = table.establish_edge(
        cl.hosts[0].gpus[0], cl.hosts[0].gpus[1], 0, EcmpSelector()
    )
    assert conn.intra_host
    assert conn.path == ("h0.local",)
    # One local path per host, shared by all of its intra-host connections.
    other = table.establish_edge(
        cl.hosts[0].gpus[1], cl.hosts[0].gpus[0], 1, EcmpSelector()
    )
    assert other.path is conn.path is cl.hosts[0].local_path


def test_inter_host_connection_has_fabric_path(cl):
    table = ConnectionTable(cl, "t")
    conn = table.establish_edge(
        cl.hosts[0].gpus[0], cl.hosts[2].gpus[0], 0, EcmpSelector(seed=1)
    )
    assert not conn.intra_host
    assert conn.path[0].startswith("h0.nic0")
    assert conn.path[-1].endswith("h2.nic0")


def test_channel_selects_nic_pair(cl):
    table = ConnectionTable(cl, "t")
    c0 = table.establish_edge(cl.hosts[0].gpus[0], cl.hosts[2].gpus[0], 0, EcmpSelector())
    c1 = table.establish_edge(cl.hosts[0].gpus[0], cl.hosts[2].gpus[0], 1, EcmpSelector())
    assert "h0.nic0" in c0.path[0]
    assert "h0.nic1" in c1.path[0]


def test_path_pinned_for_connection_lifetime(cl):
    """The ECMP hash decided at establishment sticks (same object back)."""
    table = ConnectionTable(cl, "t")
    first = table.establish_edge(cl.hosts[0].gpus[0], cl.hosts[2].gpus[0], 0, EcmpSelector())
    again = table.establish_edge(cl.hosts[0].gpus[0], cl.hosts[2].gpus[0], 0, EcmpSelector(seed=999))
    assert first is again


def test_establish_many(cl):
    table = ConnectionTable(cl, "t")
    edges = [
        (cl.hosts[0].gpus[0], cl.hosts[1].gpus[0]),
        (cl.hosts[1].gpus[0], cl.hosts[0].gpus[0]),
    ]
    table.establish(edges, channels=2, selector=EcmpSelector())
    assert len(table) == 4
    assert not any(c.intra_host for c in table.connections())


def test_lookup_missing_connection_raises(cl):
    table = ConnectionTable(cl, "t")
    with pytest.raises(KeyError):
        table.connection(cl.hosts[0].gpus[0], cl.hosts[1].gpus[0], 0)


def test_teardown_closes_everything(cl):
    table = ConnectionTable(cl, "t")
    table.establish_edge(cl.hosts[0].gpus[0], cl.hosts[1].gpus[0], 0, EcmpSelector())
    table.teardown()
    assert len(table) == 0
    assert table.torn_down
    with pytest.raises(RuntimeError):
        table.establish_edge(cl.hosts[0].gpus[0], cl.hosts[1].gpus[0], 0, EcmpSelector())


def test_connection_key_uses_channel_nics(cl):
    key = connection_key(cl, cl.hosts[0].gpus[1], cl.hosts[2].gpus[0], 1, "job")
    assert key == ("h0.nic0", "h2.nic1", "job/ch1")


def test_route_map_controls_connection_path(cl):
    rm = RouteMap()
    key = connection_key(cl, cl.hosts[0].gpus[0], cl.hosts[2].gpus[0], 0, "j")
    rm.assign(key, 1)
    table = ConnectionTable(cl, "j")
    conn = table.establish_edge(
        cl.hosts[0].gpus[0], cl.hosts[2].gpus[0], 0, RouteIdSelector(rm)
    )
    assert "spine1" in " ".join(conn.path)


def test_route_is_one_path_object_from_topology_to_trace(cl):
    """The topology's cached path is the connection's, its flows' and
    what a closed trace keeps of them: no per-flow copy anywhere."""
    from repro.telemetry.causal import CausalTracer

    rm = RouteMap()
    key = connection_key(cl, cl.hosts[0].gpus[0], cl.hosts[2].gpus[0], 0, "j")
    rm.assign(key, 1)
    conn = ConnectionTable(cl, "j").establish_edge(
        cl.hosts[0].gpus[0], cl.hosts[2].gpus[0], 0, RouteIdSelector(rm)
    )
    tracer = CausalTracer(cl.sim)
    trace = tracer.open(cl.sim.now, tenant="j", comm_id="c", seq=0, kind="k", nbytes=8)
    flows = cl.sim.add_flows(
        [(1e6, conn.path, 0), (1e6, conn.path, 1)], job_id="j", tags={"trace": trace}
    )
    cl.sim.run()
    tracer.close(trace, cl.sim.now, "completed")
    (kept,) = tracer.closed_traces()
    route = cl.topology.shortest_paths(key[0], key[1])[1]
    assert route is conn.path is flows[0].path is flows[1].path
    assert all(path is route for path in kept.attempts[0].paths)


# ----------------------------------------------------------------------
# routing-epoch pin invalidation (restored / resized links)
# ----------------------------------------------------------------------
def test_pins_reresolved_after_link_restore(cl):
    """A restored link widens the path set: cached pins must not survive."""
    table = ConnectionTable(cl, "t")
    cl.sim.fail_link("leaf0->spine0")
    conn = table.establish_edge(
        cl.hosts[0].gpus[0], cl.hosts[2].gpus[0], 0, EcmpSelector()
    )
    assert not any("spine0" in link for link in conn.path)
    cl.sim.restore_link("leaf0->spine0")
    again = table.establish_edge(
        cl.hosts[0].gpus[0], cl.hosts[2].gpus[0], 0, EcmpSelector()
    )
    # The pin was dropped and the path re-resolved over the full ECMP set.
    assert again is not conn
    cl.topology.validate_path(again.path)


def test_pins_reresolved_after_bandwidth_resize(cl):
    """set_link_bandwidth bumps the routing epoch and clears the pins."""
    table = ConnectionTable(cl, "t")
    conn = table.establish_edge(
        cl.hosts[0].gpus[0], cl.hosts[2].gpus[0], 0, EcmpSelector()
    )
    link = conn.path[1]  # a fabric link on the pinned path
    cl.sim.set_link_bandwidth(link, cl.topology.link(link).capacity * 2)
    again = table.establish_edge(
        cl.hosts[0].gpus[0], cl.hosts[2].gpus[0], 0, EcmpSelector()
    )
    assert again is not conn


def test_link_failure_alone_keeps_pins(cl):
    """Failure does not move the epoch — only restore/resize do."""
    table = ConnectionTable(cl, "t")
    conn = table.establish_edge(
        cl.hosts[0].gpus[0], cl.hosts[2].gpus[0], 0, EcmpSelector()
    )
    victim = next(l for l in ("leaf0->spine0", "leaf0->spine1") if l not in conn.path)
    cl.sim.fail_link(victim)
    again = table.establish_edge(
        cl.hosts[0].gpus[0], cl.hosts[2].gpus[0], 0, EcmpSelector()
    )
    assert again is conn
