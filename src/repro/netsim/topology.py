"""Directed-graph network topology used by the flow-level simulator.

A :class:`Topology` is a multigraph of named nodes connected by directed
:class:`Link` objects with fixed capacities.  Flows traverse an explicit
list of link ids; the fairness allocator (see :mod:`repro.netsim.fairness`)
shares each link's capacity among the flows crossing it.

The class is deliberately small: concrete fabrics (the testbed spine-leaf
of Figure 5a, the 4-switch ring of Figure 7, the 768-GPU Clos of §6.5) are
assembled by :mod:`repro.netsim.fabric`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .errors import NoPathError, UnknownLinkError, UnknownNodeError


@dataclass(frozen=True)
class Link:
    """A directed link with a fixed capacity.

    Attributes:
        link_id: Unique identifier, by convention ``"src->dst"`` (with an
            optional ``#k`` suffix for parallel links).
        src: Source node id.
        dst: Destination node id.
        capacity: Capacity in bytes per second.
    """

    link_id: str
    src: str
    dst: str
    capacity: float

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ValueError(f"link {self.link_id} needs positive capacity")


@dataclass
class Node:
    """A named vertex: a switch, a NIC endpoint, or a host-local hub."""

    node_id: str
    kind: str = "switch"
    attrs: Dict[str, object] = field(default_factory=dict)


class Topology:
    """A directed multigraph with equal-cost path enumeration.

    Paths are enumerated as *all minimum-hop* node sequences between two
    endpoints, which for a folded-Clos fabric yields exactly the ECMP
    choices (one per spine for inter-rack pairs, the single leaf path for
    intra-rack pairs).
    """

    def __init__(self, name: str = "topology") -> None:
        self.name = name
        self._nodes: Dict[str, Node] = {}
        self._links: Dict[str, Link] = {}
        # adjacency: src -> list of links out of src
        self._out: Dict[str, List[Link]] = {}
        self._path_cache: Dict[Tuple[str, str], Tuple[Tuple[str, ...], ...]] = {}
        # Integer-indexed adjacency (node index -> [(dst index, link id)]),
        # built lazily; BFS over it avoids per-edge attribute lookups.
        self._compact: Optional[
            Tuple[Dict[str, int], List[List[Tuple[int, str]]]]
        ] = None
        # per-source shortest-path DAG state, resumable level by level:
        # src index -> {"dist": [...], "preds": [[(pred index, link id)]],
        # "frontier": [...]} — one (partial) BFS serves every destination.
        self._sssp_cache: Dict[int, Dict[str, list]] = {}
        # Administratively-down links (fault injection): excluded from path
        # enumeration while the Link objects stay registered, so restoring
        # a link is cheap and flow validation still recognizes its id.
        self._down: Set[str] = set()
        # Paths already proven contiguous (every enumerated shortest path
        # plus every explicitly validated one): flow injection validates
        # a known path with one set lookup instead of walking its links.
        self._known_paths: Set[Tuple[str, ...]] = set()
        # Monotonic routing generation.  Bumped when the *usable* path set
        # widens (link restored, capacity resized) — consumers that pin
        # paths at establishment (ConnectionTable) compare epochs and
        # re-resolve, so a repaired or resized link actually carries
        # traffic again.  Deliberately NOT bumped on link failure: a
        # pinned path through a down link must keep raising LinkDownError
        # (that is the failure-detection signal).
        self._routing_epoch = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, node_id: str, kind: str = "switch", **attrs: object) -> Node:
        """Add (or return the existing) node with the given id."""
        if node_id in self._nodes:
            return self._nodes[node_id]
        node = Node(node_id, kind, dict(attrs))
        self._nodes[node_id] = node
        self._out[node_id] = []
        self._path_cache = {}
        self._sssp_cache = {}
        self._known_paths = set()
        self._compact = None
        return node

    def add_link(
        self,
        src: str,
        dst: str,
        capacity: float,
        link_id: Optional[str] = None,
    ) -> Link:
        """Add a directed link from ``src`` to ``dst``.

        Both endpoints must already exist.  Returns the created link.
        """
        for node_id in (src, dst):
            if node_id not in self._nodes:
                raise UnknownNodeError(f"unknown node {node_id!r}")
        if link_id is None:
            base = f"{src}->{dst}"
            link_id = base
            for k in itertools.count(1):
                if link_id not in self._links:
                    break
                link_id = f"{base}#{k}"
        if link_id in self._links:
            raise ValueError(f"duplicate link id {link_id!r}")
        link = Link(link_id, src, dst, capacity)
        self._links[link_id] = link
        self._out[src].append(link)
        self._path_cache = {}
        self._sssp_cache = {}
        self._known_paths = set()
        self._compact = None
        return link

    def add_duplex_link(
        self, a: str, b: str, capacity: float
    ) -> Tuple[Link, Link]:
        """Add a pair of directed links modelling one full-duplex cable."""
        return self.add_link(a, b, capacity), self.add_link(b, a, capacity)

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> Dict[str, Node]:
        return self._nodes

    @property
    def links(self) -> Dict[str, Link]:
        return self._links

    def node(self, node_id: str) -> Node:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise UnknownNodeError(f"unknown node {node_id!r}") from None

    def link(self, link_id: str) -> Link:
        try:
            return self._links[link_id]
        except KeyError:
            raise UnknownLinkError(f"unknown link {link_id!r}") from None

    def out_links(self, node_id: str) -> Sequence[Link]:
        self.node(node_id)
        return tuple(self._out[node_id])

    def capacity_of(self, link_id: str) -> float:
        return self.link(link_id).capacity

    def links_of_node(self, node_id: str) -> List[Link]:
        """Every link touching ``node_id`` (either endpoint)."""
        self.node(node_id)
        return [
            link
            for link in self._links.values()
            if link.src == node_id or link.dst == node_id
        ]

    # ------------------------------------------------------------------
    # link up/down state (fault injection)
    # ------------------------------------------------------------------
    def set_link_state(self, link_id: str, up: bool) -> bool:
        """Mark a link up or down; returns True if the state changed.

        Down links keep their :class:`Link` entry but are excluded from
        shortest-path enumeration, so route re-resolution naturally avoids
        them.
        """
        self.link(link_id)
        currently_up = link_id not in self._down
        if currently_up == up:
            return False
        if up:
            self._down.discard(link_id)
            # A restored link widens the usable path set; pinned routes
            # must re-resolve to start using it again (see _routing_epoch).
            self._routing_epoch += 1
        else:
            self._down.add(link_id)
        self._path_cache = {}
        self._sssp_cache = {}
        self._known_paths = set()
        self._compact = None
        return True

    @property
    def routing_epoch(self) -> int:
        """Generation counter for routing-relevant improvements.

        Consumers that pin paths (ECMP selection happens once per
        connection lifetime in :class:`~repro.transport.connections.
        ConnectionTable`) snapshot this value and re-resolve their pins
        when it moves — that is how a restored or resized link re-enters
        service for already-established connections.
        """
        return self._routing_epoch

    def bump_routing_epoch(self) -> None:
        """Force pinned-route consumers to re-resolve (capacity changes)."""
        self._routing_epoch += 1

    def link_is_up(self, link_id: str) -> bool:
        self.link(link_id)
        return link_id not in self._down

    @property
    def has_down_links(self) -> bool:
        """Cheap guard for hot paths: any link currently down?"""
        return bool(self._down)

    def down_links(self) -> FrozenSet[str]:
        """Ids of links currently administratively down."""
        return frozenset(self._down)

    # ------------------------------------------------------------------
    # path enumeration
    # ------------------------------------------------------------------
    def equal_cost_paths(self, src: str, dst: str) -> List[List[str]]:
        """Return all minimum-hop paths from ``src`` to ``dst``.

        Each path is a fresh list of *link ids* the caller may mutate.
        Results are cached; the cache is invalidated whenever the graph
        changes.  Raises :class:`NoPathError` when ``dst`` is unreachable.
        Hot-path consumers that only read should prefer
        :meth:`shortest_paths`, which skips the per-call copies.
        """
        return [list(path) for path in self.shortest_paths(src, dst)]

    def shortest_paths(self, src: str, dst: str) -> Tuple[Tuple[str, ...], ...]:
        """All minimum-hop paths as an immutable (shared, cached) tuple.

        This is the zero-copy variant of :meth:`equal_cost_paths` used by
        the path selectors on the connection-establishment hot path.
        """
        self.node(src)
        self.node(dst)
        key = (src, dst)
        hit = self._path_cache.get(key)
        if hit is not None:
            return hit
        paths = self._enumerate_shortest(src, dst)
        if not paths:
            raise NoPathError(f"no path from {src!r} to {dst!r}")
        self._path_cache[key] = paths
        self._known_paths.update(paths)
        return paths

    def _compact_graph(self) -> Tuple[Dict[str, int], List[List[Tuple[int, str]]]]:
        """Integer-indexed adjacency, (re)built lazily after graph changes."""
        if self._compact is None:
            index = {node_id: i for i, node_id in enumerate(self._nodes)}
            adj: List[List[Tuple[int, str]]] = [[] for _ in index]
            for src, links in self._out.items():
                adj[index[src]] = [
                    (index[link.dst], link.link_id)
                    for link in links
                    if link.link_id not in self._down
                ]
            self._compact = (index, adj)
        return self._compact

    def _sssp(self, src_i: int, dst_i: int, adj: List[List[Tuple[int, str]]]) -> Dict[str, list]:
        """Resumable BFS shortest-path DAG from node index ``src_i``.

        The BFS expands level by level only until ``dst_i`` is reached;
        the frontier is saved so a later, more distant destination resumes
        where this one stopped.  One (partial) BFS per source is amortized
        over all destinations asked about — a Clos fabric asks about many
        NIC pairs per source — replacing the former per-(src, dst) BFS.
        """
        state = self._sssp_cache.get(src_i)
        if state is None:
            dist = [-1] * len(adj)
            dist[src_i] = 0
            # preds is a dict populated only for reached nodes — allocating
            # a list per node up front dominated the profile on the 1000+
            # node Clos fabric.
            state = {"dist": dist, "preds": {}, "frontier": [src_i]}
            self._sssp_cache[src_i] = state
        dist = state["dist"]
        preds = state["preds"]
        frontier = state["frontier"]
        while frontier and dist[dst_i] == -1:
            nxt: List[int] = []
            for node in frontier:
                d = dist[node] + 1
                for nbr, link_id in adj[node]:
                    seen = dist[nbr]
                    if seen == -1:
                        dist[nbr] = d
                        preds[nbr] = [(node, link_id)]
                        nxt.append(nbr)
                    elif seen == d:
                        preds[nbr].append((node, link_id))
            frontier = nxt
        state["frontier"] = frontier
        return state

    def _enumerate_shortest(self, src: str, dst: str) -> Tuple[Tuple[str, ...], ...]:
        """Every minimum-hop link sequence, via the shortest-path DAG."""
        if src == dst:
            return ((),)
        index, adj = self._compact_graph()
        src_i, dst_i = index[src], index[dst]
        state = self._sssp(src_i, dst_i, adj)
        dist = state["dist"]
        preds = state["preds"]
        if dist[dst_i] == -1:
            return ()

        paths: List[List[str]] = []

        def walk(node: int, suffix: List[str]) -> None:
            if node == src_i:
                paths.append(list(reversed(suffix)))
                return
            target = dist[node] - 1
            for pred, link_id in preds.get(node, ()):
                if dist[pred] == target:
                    suffix.append(link_id)
                    walk(pred, suffix)
                    suffix.pop()

        walk(dst_i, [])
        paths.sort()
        return tuple(tuple(path) for path in paths)

    def path_nodes(self, path: Sequence[str]) -> List[str]:
        """Expand a link-id path into the node sequence it traverses."""
        if not path:
            return []
        nodes = [self.link(path[0]).src]
        for link_id in path:
            link = self.link(link_id)
            if link.src != nodes[-1]:
                raise ValueError(f"discontinuous path at {link_id!r}")
            nodes.append(link.dst)
        return nodes

    def validate_path(self, path: Sequence[str]) -> None:
        """Raise if ``path`` is not a contiguous sequence of known links.

        Validated paths are interned: revalidating a path that already
        passed (or came out of :meth:`shortest_paths`) is one set lookup,
        which is what keeps flow injection O(1) on the hot path.
        """
        key = tuple(path)
        if key in self._known_paths:
            return
        self.path_nodes(key)
        self._known_paths.add(key)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Topology({self.name!r}, nodes={len(self._nodes)}, "
            f"links={len(self._links)})"
        )
