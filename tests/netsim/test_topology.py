"""Topology graph and equal-cost path enumeration tests."""

import pytest

from repro.netsim.errors import NoPathError, UnknownLinkError, UnknownNodeError
from repro.netsim.topology import Link, Topology


def diamond() -> Topology:
    """a -> (b | c) -> d: two equal-cost 2-hop paths."""
    topo = Topology("diamond")
    for n in "abcd":
        topo.add_node(n)
    topo.add_link("a", "b", 1e9)
    topo.add_link("a", "c", 1e9)
    topo.add_link("b", "d", 1e9)
    topo.add_link("c", "d", 1e9)
    return topo


def test_add_node_is_idempotent():
    topo = Topology()
    first = topo.add_node("x", kind="leaf")
    second = topo.add_node("x")
    assert first is second
    assert topo.node("x").kind == "leaf"


def test_link_requires_existing_nodes():
    topo = Topology()
    topo.add_node("a")
    with pytest.raises(UnknownNodeError):
        topo.add_link("a", "missing", 1e9)


def test_link_capacity_must_be_positive():
    with pytest.raises(ValueError):
        Link("l", "a", "b", 0.0)


def test_link_ids_auto_deduplicate():
    topo = Topology()
    topo.add_node("a")
    topo.add_node("b")
    l1 = topo.add_link("a", "b", 1e9)
    l2 = topo.add_link("a", "b", 1e9)
    assert l1.link_id == "a->b"
    assert l2.link_id == "a->b#1"


def test_duplicate_explicit_link_id_rejected():
    topo = Topology()
    topo.add_node("a")
    topo.add_node("b")
    topo.add_link("a", "b", 1e9, link_id="L")
    with pytest.raises(ValueError):
        topo.add_link("a", "b", 1e9, link_id="L")


def test_unknown_lookups_raise():
    topo = Topology()
    with pytest.raises(UnknownNodeError):
        topo.node("ghost")
    with pytest.raises(UnknownLinkError):
        topo.link("ghost")


def test_equal_cost_paths_in_diamond():
    topo = diamond()
    paths = topo.equal_cost_paths("a", "d")
    assert len(paths) == 2
    assert [["a->b", "b->d"], ["a->c", "c->d"]] == sorted(paths)


def test_paths_are_minimum_hop_only():
    topo = diamond()
    # add a longer detour a->e->b; must not appear in results for a->d
    topo.add_node("e")
    topo.add_link("a", "e", 1e9)
    topo.add_link("e", "b", 1e9)
    paths = topo.equal_cost_paths("a", "d")
    assert all(len(p) == 2 for p in paths)


def test_no_path_raises():
    topo = Topology()
    topo.add_node("a")
    topo.add_node("b")
    with pytest.raises(NoPathError):
        topo.equal_cost_paths("a", "b")


def test_self_path_is_empty():
    topo = diamond()
    assert topo.equal_cost_paths("a", "a") == [[]]


def test_paths_respect_direction():
    topo = Topology()
    topo.add_node("a")
    topo.add_node("b")
    topo.add_link("a", "b", 1e9)
    with pytest.raises(NoPathError):
        topo.equal_cost_paths("b", "a")


def test_path_cache_invalidated_on_growth():
    topo = diamond()
    assert len(topo.equal_cost_paths("a", "d")) == 2
    topo.add_node("x")
    topo.add_link("a", "x", 1e9)
    topo.add_link("x", "d", 1e9)
    assert len(topo.equal_cost_paths("a", "d")) == 3


def nic_pair() -> Topology:
    """s -> a -> (b | c) -> d -> t: a NIC pair's shape, two routes."""
    topo = diamond()
    for n in "st":
        topo.add_node(n)
    topo.add_link("s", "a", 1e9)
    topo.add_link("d", "t", 1e9)
    return topo


def test_route_rows_split_shared_links_from_each_routes_own():
    topo = nic_pair()
    number = {link_id: i for i, link_id in enumerate(topo.links)}
    shared, own = topo.route_rows("s", "t")
    assert shared == (number["s->a"], number["d->t"])
    assert own == tuple(
        tuple(number[link] for link in path[1:-1])
        for path in topo.shortest_paths("s", "t")
    )
    assert topo.route_rows("s", "t") is topo.route_rows("s", "t")
    assert topo.route_rows("a", "a") == ((), ((),))


def test_route_rows_and_generation_follow_link_state_and_growth():
    topo = nic_pair()
    before = topo.path_generation
    assert len(topo.route_rows("s", "t")[1]) == 2
    topo.set_link_state("a->b", False)
    assert len(topo.route_rows("s", "t")[1]) == 1
    topo.set_link_state("a->b", True)
    assert len(topo.route_rows("s", "t")[1]) == 2
    topo.add_node("x")
    topo.add_link("a", "x", 1e9)
    topo.add_link("x", "d", 1e9)
    assert len(topo.route_rows("s", "t")[1]) == 3
    assert topo.path_generation == before + 5


def test_path_nodes_expansion():
    topo = diamond()
    assert topo.path_nodes(["a->b", "b->d"]) == ["a", "b", "d"]
    assert topo.path_nodes([]) == []


def test_validate_path_rejects_discontinuity():
    topo = diamond()
    with pytest.raises(ValueError):
        topo.validate_path(["a->b", "c->d"])


def test_capacity_lookup():
    topo = diamond()
    assert topo.capacity_of("a->b") == 1e9


def test_out_links():
    topo = diamond()
    outs = {l.dst for l in topo.links_of_node("a") if l.src == "a"}
    assert outs == {"b", "c"}
