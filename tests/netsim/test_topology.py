"""Topology graph and equal-cost path enumeration tests."""

import itertools
import random
import tracemalloc

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.netsim.errors import NoPathError, UnknownLinkError, UnknownNodeError
from repro.netsim.fabric import large_cluster_fabric
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


# -- networkx oracle -----------------------------------------------------------
@st.composite
def multigraphs(draw):
    """A random directed multigraph: self-loops and parallel links allowed."""
    size = draw(st.integers(1, 8))
    edges = draw(
        st.lists(st.tuples(st.integers(0, size - 1), st.integers(0, size - 1)), max_size=30)
    )
    topo = Topology("random")
    for i in range(size):
        topo.add_node(f"n{i}")
    for a, b in edges:
        topo.add_link(f"n{a}", f"n{b}", 1e9)
    return topo


def oracle_paths(topo, src, dst):
    """``networkx.all_shortest_paths`` over the up links, expanded to every
    parallel-link choice and sorted; ``None`` when ``dst`` is unreachable."""
    graph = nx.MultiDiGraph()
    graph.add_nodes_from(topo.nodes)
    for link in topo.links.values():
        if topo.link_is_up(link.link_id):
            graph.add_edge(link.src, link.dst, key=link.link_id)
    try:
        node_paths = list(nx.all_shortest_paths(graph, src, dst))
    except nx.NetworkXNoPath:
        return None
    return tuple(sorted(
        links
        for nodes in node_paths
        for links in itertools.product(
            *(sorted(graph[a][b]) for a, b in zip(nodes, nodes[1:]))
        )
    ))


def assert_matches_oracle(topo, src, dst):
    expected = oracle_paths(topo, src, dst)
    if expected is None:
        with pytest.raises(NoPathError):
            topo.shortest_paths(src, dst)
    else:
        assert topo.shortest_paths(src, dst) == expected


@given(multigraphs(), st.data())
@settings(max_examples=150, deadline=None)
def test_shortest_paths_match_networkx_across_link_state(topo, data):
    nodes = list(topo.nodes)
    links = list(topo.links)
    for _ in range(data.draw(st.integers(1, 12))):
        if links and data.draw(st.booleans()):
            topo.set_link_state(data.draw(st.sampled_from(links)), data.draw(st.booleans()))
        else:
            src, dst = data.draw(st.sampled_from(nodes)), data.draw(st.sampled_from(nodes))
            assert_matches_oracle(topo, src, dst)


@given(multigraphs(), st.data())
@settings(max_examples=150, deadline=None)
def test_resumed_search_matches_networkx(topo, data):
    """Near and far destinations of one source in any order: each farther
    one resumes the source's partial search."""
    nodes = list(topo.nodes)
    src = data.draw(st.sampled_from(nodes))
    for dst in data.draw(st.permutations(nodes)):
        assert_matches_oracle(topo, src, dst)


def test_path_tables_stay_small_on_the_768_gpu_fabric():
    """Seeded 736 NIC sources x 2 destinations on the §6.5 fabric: the path
    search keeps a distance row per source, not a predecessor list per
    node (which took ~124 MiB here)."""
    topo = large_cluster_fabric().topology
    nics = [node_id for node_id, node in topo.nodes.items() if node.kind == "nic"]
    rng = random.Random(0)
    pairs = [
        (src, dst)
        for src in rng.sample(nics, 736)
        for dst in rng.sample([n for n in nics if n != src], 2)
    ]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        paths = sum(len(topo.shortest_paths(src, dst)) for src, dst in pairs)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert paths >= len(pairs)
    assert grown <= 12 * 2**20, f"{grown / 2**20:.1f} MiB"
