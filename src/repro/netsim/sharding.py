"""Domain-sharded max-min fairness for multi-pod fabrics.

Weighted max-min fairness is a global property *per connected component*
of the flow/link sharing graph: two flows that share no link (directly or
transitively) cannot influence each other's rate, so disjoint components
solve independently and exactly.  On a multi-pod Clos fabric
(:func:`repro.netsim.fabric.multi_pod_clos`) components follow the pod
structure — intra-pod traffic never couples two pods unless a flow
actually crosses the core — which is what makes a datacenter-scale
simulation tractable: one completion dirties one pod-sized (usually much
smaller) domain, not the whole fabric.

:class:`ShardedFairnessSolver` maintains the components *dynamically*:

* every link starts unowned; a new flow claims its links into a domain
  (one per component), each domain owning a private
  :class:`~repro.netsim.fairness.IncrementalFairnessSolver` over its
  links only;
* a flow whose links span several domains **merges** them (the
  synchronization point of the shard model: traffic crossing a shard
  boundary — e.g. an inter-pod flow over core links — conservatively
  fuses the shards so the coupled allocation stays exact, a zero-lag
  barrier instead of an approximation).  The merged solver re-registers
  member flows in their global arrival order, so every per-link
  incidence list keeps the exact entry order of the unsharded reference
  solver and the bincount partial sums stay bit-identical;
* domains never split while occupied (merging is monotone), but a domain
  whose last flow leaves **dissolves**, returning its links to the
  unowned pool; under phased workloads components re-form small.

Only *dirty* domains (touched by an add/remove/gate/capacity delta since
their last solve) are re-solved, and each domain solve rides the plain
solver's scalar fast path when small.

Exactness: allocations match the global reference solver bit for bit
except when two *different* link shares land within the solver's
relative freeze tolerance (1e-9) of each other across two independent
components — the global solver would freeze both at one water level, the
sharded one at each component's own.  The property suite drives both
solvers through randomized churn and asserts exact equality.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from .fairness import IncrementalFairnessSolver
from .flows import Flow


class _Domain:
    """One fairness component: a private solver over an owned link set.

    The solver is built *lazily* at the domain's first solve: while flows
    are still arriving (and domains are still merging as arrivals couple
    components), membership is just set/dict bookkeeping — a merge during
    an injection wave is a set union, not a solver rebuild.  Once
    materialized, the solver absorbs further churn incrementally; a later
    merge throws the solver away and the union re-materializes on the
    next solve.
    """

    __slots__ = ("solver", "links", "members", "solo_level", "solo_bneck")

    def __init__(self, links: Set[str]) -> None:
        self.solver: Optional[IncrementalFairnessSolver] = None
        self.links = links
        self.members: Dict[str, Flow] = {}
        #: Last solved water level / bottleneck while the domain is a
        #: singleton solved on the solo fast path (no solver built).
        self.solo_level = 0.0
        self.solo_bneck: Optional[str] = None


class ShardedFairnessSolver:
    """Drop-in (engine-facing) solver that shards by sharing component.

    Implements the solver contract of :mod:`repro.netsim.fairness`;
    ``solve()`` results are ``(changed_global_slots, {slot: rate})``.

    Capacity overrides (the burst-interference model) are not supported:
    the penalty couples link capacities through tenant co-location, which
    is a global property; the engine rejects the combination up front.
    """

    def __init__(self, capacities: Mapping[str, float]) -> None:
        self._caps: Dict[str, float] = dict(capacities)
        self._link_domain: Dict[str, _Domain] = {}
        self._flow_domain: Dict[str, _Domain] = {}
        self._domains: Set[_Domain] = set()
        self._dirty: Set[_Domain] = set()
        # global arrival order; merged domains re-add flows in this order
        # so per-link incidence entry order matches the unsharded solver
        self._seq: Dict[str, int] = {}
        self._next_seq = 0
        # engine-facing global slots
        self._slots: List[Optional[Flow]] = []
        self._slot_of: Dict[str, int] = {}
        self._free_slots: List[int] = []
        # counters (wrapper-level; domain counters fold in via properties)
        self.domain_merges = 0
        self.domain_dissolutions = 0
        self.max_domain_flows = 0
        self.solo_solves = 0
        self.last_delta = 0
        self.solve_epoch = 0
        # last rate handed to the engine per flow; lets a freshly
        # (re)materialized solver report everything without the engine
        # re-anchoring flows whose allocation did not actually move
        self._reported: Dict[str, float] = {}
        self._retired = {
            "full_rebuilds": 0,
            "delta_updates": 0,
            "delta_flows_total": 0,
            "solves_skipped": 0,
            "scalar_solves": 0,
        }
        self._util_cache: Tuple[int, float, Dict[str, float]] = (-1, 0.0, {})
        self._loads_cache: Tuple[int, Dict[str, float]] = (-1, {})

    # -- counter aggregation -------------------------------------------
    def _aggregate(self, name: str) -> int:
        return self._retired[name] + sum(
            getattr(d.solver, name) for d in self._domains if d.solver
        )

    def _retire_solver(self, domain: _Domain) -> None:
        if domain.solver is not None:
            for name in self._retired:
                self._retired[name] += getattr(domain.solver, name)
            domain.solver = None

    @property
    def full_rebuilds(self) -> int:
        return self._aggregate("full_rebuilds")

    @property
    def delta_updates(self) -> int:
        return self._aggregate("delta_updates")

    @property
    def delta_flows_total(self) -> int:
        return self._aggregate("delta_flows_total")

    @property
    def solves_skipped(self) -> int:
        return self._aggregate("solves_skipped")

    @property
    def scalar_solves(self) -> int:
        return self._aggregate("scalar_solves")

    @property
    def domain_count(self) -> int:
        return len(self._domains)

    # -- structural updates --------------------------------------------
    def add_flow(self, flow: Flow) -> None:
        caps = self._caps
        link_domain = self._link_domain
        touched: List[_Domain] = []
        seen: Set[int] = set()
        for link in flow.links:
            if link not in caps:
                raise KeyError(
                    f"flow {flow.flow_id} uses unknown link {link!r}"
                )
            d = link_domain.get(link)
            if d is not None and id(d) not in seen:
                seen.add(id(d))
                touched.append(d)
        if not touched:
            domain = _Domain(set(flow.links))
            self._domains.add(domain)
        elif len(touched) == 1:
            domain = touched[0]
            fresh = [l for l in flow.links if l not in domain.links]
            if fresh:
                if domain.solver is not None:
                    domain.solver.add_links(
                        {l: self._caps[l] for l in fresh}
                    )
                domain.links.update(fresh)
        else:
            domain = self._merge(touched, extra_links=flow.links)
        for link in flow.links:
            self._link_domain[link] = domain
        if domain.solver is not None:
            domain.solver.add_flow(flow)
        domain.members[flow.flow_id] = flow
        self._flow_domain[flow.flow_id] = domain
        self._seq[flow.flow_id] = self._next_seq
        self._next_seq += 1
        self._dirty.add(domain)
        if len(domain.members) > self.max_domain_flows:
            self.max_domain_flows = len(domain.members)
        # engine-facing slot
        if self._free_slots:
            slot = self._free_slots.pop()
            self._slots[slot] = flow
        else:
            slot = len(self._slots)
            self._slots.append(flow)
        self._slot_of[flow.flow_id] = slot

    def add_flows(self, flows: Iterable[Flow]) -> None:
        for flow in flows:
            self.add_flow(flow)

    def _merge(
        self, parts: List[_Domain], extra_links: Tuple[str, ...]
    ) -> _Domain:
        """Fuse ``parts`` (plus any unowned ``extra_links``) into one
        unmaterialized domain; the union's solver is (re)built at the
        next solve, re-registering members in global arrival order so
        per-link incidence entry order matches the unsharded reference.
        """
        links: Set[str] = set(extra_links)
        merged = _Domain(links)
        for d in parts:
            links.update(d.links)
            merged.members.update(d.members)
            self._domains.discard(d)
            self._dirty.discard(d)
            self._retire_solver(d)
        for fid in merged.members:
            self._flow_domain[fid] = merged
        for link in links:
            self._link_domain[link] = merged
        self._domains.add(merged)
        self.domain_merges += 1
        return merged

    def _materialize(self, domain: _Domain) -> None:
        """Build the domain's solver, registering members in global
        arrival order (bit-exactness depends on this order matching the
        unsharded solver's per-link entry order)."""
        caps = self._caps
        solver = IncrementalFairnessSolver(
            {l: caps[l] for l in domain.links}
        )
        seq = self._seq
        for flow in sorted(
            domain.members.values(), key=lambda f: seq[f.flow_id]
        ):
            solver.add_flow(flow)
        domain.solver = solver

    def remove_flow(self, flow: Flow) -> None:
        domain = self._flow_domain.pop(flow.flow_id, None)
        if domain is None:
            return
        if domain.solver is not None:
            domain.solver.remove_flow(flow)
        domain.members.pop(flow.flow_id, None)
        self._seq.pop(flow.flow_id, None)
        self._reported.pop(flow.flow_id, None)
        slot = self._slot_of.pop(flow.flow_id, None)
        if slot is not None:
            self._slots[slot] = None
            self._free_slots.append(slot)
        if domain.members:
            self._dirty.add(domain)
        else:
            # dissolve: links return to the unowned pool
            for link in domain.links:
                if self._link_domain.get(link) is domain:
                    del self._link_domain[link]
            self._domains.discard(domain)
            self._dirty.discard(domain)
            self._retire_solver(domain)
            self.domain_dissolutions += 1

    def remove_flows(self, flows: Iterable[Flow]) -> None:
        for flow in flows:
            self.remove_flow(flow)

    def set_active(self, flow: Flow, active: bool) -> None:
        domain = self._flow_domain.get(flow.flow_id)
        if domain is not None:
            # An unmaterialized domain reads ``flow.active`` at build
            # time, which already reflects this change.
            if domain.solver is not None:
                domain.solver.set_active(flow, active)
            self._dirty.add(domain)

    def set_weight(self, flow: Flow, weight: float) -> None:
        domain = self._flow_domain.get(flow.flow_id)
        if domain is not None:
            # Unmaterialized domains read ``flow.weight`` at build time.
            if domain.solver is not None:
                domain.solver.set_weight(flow, weight)
            self._dirty.add(domain)

    def set_capacity(self, link_id: str, capacity: float) -> None:
        if link_id not in self._caps:
            raise KeyError(f"unknown link {link_id!r}")
        self._caps[link_id] = capacity
        domain = self._link_domain.get(link_id)
        if domain is not None:
            if domain.solver is not None:
                domain.solver.set_capacity(link_id, capacity)
            self._dirty.add(domain)

    def scaled_caps(self, penalty: float):
        raise NotImplementedError(
            "interference_penalty requires the unsharded solver"
        )

    # -- queries --------------------------------------------------------
    def bottleneck_of(self, flow_id: str) -> Optional[str]:
        domain = self._flow_domain.get(flow_id)
        if domain is None:
            return None
        if domain.solver is None:
            return domain.solo_bneck if len(domain.members) == 1 else None
        return domain.solver.bottleneck_of(flow_id)

    def bottleneck_of_slot(self, slot: int) -> Optional[str]:
        flow = self._slots[slot]
        if flow is None:
            return None
        return self.bottleneck_of(flow.flow_id)

    def level_of(self, flow_id: str) -> float:
        domain = self._flow_domain.get(flow_id)
        if domain is None:
            return 0.0
        if domain.solver is None:
            return domain.solo_level if len(domain.members) == 1 else 0.0
        return domain.solver.level_of(flow_id)

    def rates_by_id(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        reported = self._reported
        for d in self._domains:
            if d.solver is not None:
                out.update(d.solver.rates_by_id())
            else:
                # solo-solved singleton or not-yet-solved domain
                out.update(
                    (fid, reported.get(fid, 0.0)) for fid in d.members
                )
        return out

    def link_loads(self) -> Dict[str, float]:
        epoch, cached = self._loads_cache
        if epoch == self.solve_epoch:
            return cached
        out: Dict[str, float] = {}
        reported = self._reported
        for d in self._domains:
            if d.solver is not None:
                out.update(d.solver.link_loads())
            elif len(d.members) == 1:
                (fid, member), = d.members.items()
                rate = reported.get(fid, 0.0)
                if rate:
                    out.update((link, rate) for link in member.links)
        self._loads_cache = (self.solve_epoch, out)
        return out

    def link_utilization(self, min_utilization: float = 0.0) -> Dict[str, float]:
        epoch, cached_min, cached = self._util_cache
        if epoch == self.solve_epoch and cached_min == min_utilization:
            return cached
        out: Dict[str, float] = {}
        caps = self._caps
        reported = self._reported
        for d in self._domains:
            if d.solver is not None:
                out.update(d.solver.link_utilization(min_utilization))
            elif len(d.members) == 1:
                (fid, member), = d.members.items()
                rate = reported.get(fid, 0.0)
                if rate:
                    for link in member.links:
                        util = rate / caps[link]
                        if util >= min_utilization:
                            out[link] = util
        self._util_cache = (self.solve_epoch, min_utilization, out)
        return out

    # -- the solve ------------------------------------------------------
    def solve(
        self, capacities: Optional[object] = None
    ) -> Tuple[List[int], Dict[int, float]]:
        """Re-solve every dirty domain; returns global changed slots.

        Rates are returned as ``{global_slot: rate}`` covering (at least)
        the changed slots — the mapping the engine indexes.
        """
        if capacities is not None:
            raise NotImplementedError(
                "sharded solve does not take capacity overrides"
            )
        if not self._dirty:
            self.last_delta = 0
            return [], {}
        changed: List[int] = []
        rates: Dict[int, float] = {}
        total_delta = 0
        dirty = self._dirty
        self._dirty = set()
        slot_of = self._slot_of
        caps = self._caps
        reported = self._reported
        for domain in dirty:
            if domain.solver is None and len(domain.members) == 1:
                # Solo fast path: a singleton component's allocation is
                # ``level = min(cap/weight)`` over its links — the exact
                # value (same IEEE quotients, same min) progressive
                # filling computes for a one-flow component — so no
                # solver is ever built for it.
                (fid, member), = domain.members.items()
                if member.active:
                    weight = member.weight
                    level = bneck = None
                    for link in member.links:
                        quot = caps[link] / weight
                        if level is None or quot < level:
                            level = quot
                            bneck = link
                    rate = weight * level
                else:
                    level = 0.0
                    bneck = None
                    rate = 0.0
                domain.solo_level = level
                domain.solo_bneck = bneck
                self.solo_solves += 1
                total_delta += 1
                if reported.get(fid, 0.0) != rate:
                    reported[fid] = rate
                    gslot = slot_of[fid]
                    rates[gslot] = rate
                    changed.append(gslot)
                continue
            if domain.solver is None:
                self._materialize(domain)
            solver = domain.solver
            local_changed, local_rates = solver.solve()
            total_delta += solver.last_delta
            local_table = solver._slots
            for ls in local_changed.tolist():
                f = local_table[ls]
                if f is None:
                    continue
                fid = f.flow_id
                rate = float(local_rates[ls])
                if reported.get(fid, 0.0) != rate:
                    reported[fid] = rate
                    gslot = slot_of[fid]
                    rates[gslot] = rate
                    changed.append(gslot)
        self.last_delta = total_delta
        self.solve_epoch += 1
        return changed, rates
