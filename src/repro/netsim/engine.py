"""Discrete-event fluid flow simulator.

The engine advances a single simulated clock over two kinds of occurrences:

* **flow completions** — derived from the current weighted max-min rate
  allocation (recomputed lazily whenever the active flow set changes), and
* **scheduled callbacks** — arbitrary control-plane events (compute kernels
  finishing, reconfiguration commands arriving, jobs being submitted...).

Everything above the network (GPU streams, the MCCS engines, the traffic
generator) is driven by callbacks on this clock, so the whole reproduction
shares one coherent notion of time.

There is one event loop, one solver and one rate-recompute path.  A
persistent :class:`~repro.netsim.fairness.IncrementalFairnessSolver`
absorbs flow churn in O(Δ) and holds each in-network flow's data plane in
the flow's one solver slot, completions come from a heap of ETAs under a
*virtual-byte clock* (each flow's ``remaining`` is exact as of its slot's
``synced`` time and derived lazily as
``remaining - rate * (now - synced)`` until its rate changes), and
heap entries are invalidated by bumping ``flow._heap_epoch`` whenever a
rate moves.  Per event the loop touches only the flows whose allocation
actually changed.  :func:`~repro.netsim.fairness.progressive_filling` is
the rate oracle the tests hold this core to.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import LinkDownError, SimulationError
from .fairness import IncrementalFairnessSolver
from .flows import Flow
from .topology import Topology

# Completion slack: flows within this many bytes of done are completed.
_BYTE_EPS = 1e-6
# Two timestamps closer than this are treated as simultaneous.
_TIME_EPS = 1e-12

EventCallback = Callable[[], None]


class SimObserver:
    """No-op base class for :class:`FlowSimulator` observers.

    Observers are the engine's telemetry hook: they see every flow enter
    and leave the network, every gate transition, and every traced flow's
    rate change, without being able to perturb the simulation.

    The contract is batch-first.  Flows enter and complete in batches and
    the engine makes one call per batch per observer:

    * ``on_flows_added(flows, now)`` — one :meth:`FlowSimulator.add_flows`
      launch batch (never empty), e.g. a collective's same-instant rank
      launches; its flows share ``job_id`` and ``tags`` and are already
      in the network.
    * ``on_flows_completed(flows, now)`` — every flow that finished at the
      instant ``now``, in completion order; already out of the network,
      their ``on_complete`` callbacks not yet fired.
    * ``on_rates_changed(slots, rates, bottleneck_link_idx, now)`` — one
      per recomputation that moved a flow in the network: the moved flows'
      solver slots (a sorted ``int64`` array, never empty; the flow in a
      slot is ``sim._solver._slots[slot]``), their new rates and their
      bottleneck link indices in the solver's link order (``-1``: none),
      as arrays aligned with ``slots``.  During the call the solver's
      incidence and ``_active`` column hold the membership the rates were
      solved for; an observer reads there what it needs of it.

    The rare transitions (cancel, fail, gate) stay per flow.
    """

    def on_flows_added(self, flows: Sequence[Flow], now: float) -> None:  # pragma: no cover
        pass

    def on_flows_completed(self, flows: Sequence[Flow], now: float) -> None:  # pragma: no cover
        pass

    def on_flow_cancelled(self, flow: Flow, now: float) -> None:  # pragma: no cover
        pass

    def on_flow_failed(self, flow: Flow, now: float) -> None:  # pragma: no cover
        pass

    def on_flow_gated(self, flow: Flow, gated: bool, now: float) -> None:  # pragma: no cover
        pass

    def on_rates_changed(self, slots: np.ndarray, rates: np.ndarray,
                         bottleneck_link_idx: np.ndarray,
                         now: float) -> None:  # pragma: no cover
        pass


class FlowSimulator:
    """Fluid flow-level network simulator with max-min fair sharing.

    Args:
        topology: The network graph; link capacities come from here.
    """

    def __init__(self, topology: Topology, interference_penalty: float = 0.0) -> None:
        """Args:
            topology: The network graph.
            interference_penalty: Optional burst-interference model.  Pure
                fluid max-min fairness misses the switch-buffer/PFC-level
                degradation that bursty tenants inflict on each other when
                sharing a link (the effect CASSINI-style interleaving, and
                the paper's PFA/TS results, exploit).  When > 0, a link
                carrying active flows of two or more distinct jobs has its
                effective capacity scaled by ``1 - interference_penalty``.
                0 (default) is the paper's §6.5 per-flow-fairness model.
        """
        if not 0.0 <= interference_penalty < 1.0:
            raise ValueError("interference_penalty must be in [0, 1)")
        self.topology = topology
        self.now = 0.0
        self.interference_penalty = interference_penalty
        self._capacities: Dict[str, float] = {
            link_id: link.capacity for link_id, link in topology.links.items()
        }
        self._active: Dict[str, Flow] = {}
        # Flow ids restart at 0 per simulator, so a run's ids do not depend
        # on what else the process simulated before it.
        self._flows_injected = 0
        # path -> distinct links, for every path validated so far (see
        # ``_checked_route``).
        self._links_of_path: Dict[Tuple[str, ...], Tuple[str, ...]] = {}
        self._events: List[Tuple[float, int, EventCallback]] = []
        self._event_seq = itertools.count()
        #: Sequence number of the last event :meth:`schedule` issued.
        self.last_event_seq = -1
        self._dirty = True
        self._observers: List[SimObserver] = []
        self.flows_completed = 0
        self.flows_cancelled = 0
        self.flows_failed = 0
        self.rate_recomputations = 0
        # The solver's slot of a flow is its only slot: the solver's
        # columns also hold remaining/rate/synced, so rate recomputations
        # settle and re-anchor whole batches with numpy ops.
        self._solver = IncrementalFairnessSolver(self._capacities)
        # Structural deltas absorbed beyond the first per recomputation:
        # k churn ops inside one sim timestep cost one solve, not k.
        self.solver_coalesced_solves = 0
        # (eta, seq, epoch, flow); entries whose epoch no longer matches
        # flow._heap_epoch are stale and dropped lazily on pop.
        self._heap: List[Tuple[float, int, int, Flow]] = []
        self._heap_seq = itertools.count()
        self.heap_pushes = 0
        self.heap_invalidations = 0
        self.stale_heap_pops = 0

    # ------------------------------------------------------------------
    # observers
    # ------------------------------------------------------------------
    def add_observer(self, observer: SimObserver) -> None:
        """Attach a telemetry observer (see :class:`SimObserver`)."""
        self._observers.append(observer)

    # ------------------------------------------------------------------
    # flow management
    # ------------------------------------------------------------------
    def add_flow(
        self,
        size: float,
        path: Sequence[str],
        *,
        job_id: Optional[str] = None,
        weight: float = 1.0,
        gated: bool = False,
        on_complete: Optional[Callable[[Flow, float], None]] = None,
        on_fail: Optional[Callable[[Flow, float, BaseException], None]] = None,
        tags: Optional[Dict[str, object]] = None,
    ) -> Flow:
        """Inject one flow at the current time: a batch of one, see
        :meth:`add_flows` (``tags`` is copied here)."""
        return self.add_flows(
            ((size, path, None),), job_id=job_id, weight=weight,
            gated=gated, on_complete=on_complete, on_fail=on_fail,
            tags=dict(tags) if tags else None,
        )[0]

    def add_flows(
        self,
        transfers: Sequence[tuple],
        *,
        job_id: Optional[str] = None,
        weight: float = 1.0,
        gated: bool = False,
        on_complete: Optional[Callable[[Flow, float], None]] = None,
        on_fail: Optional[Callable[[Flow, float, BaseException], None]] = None,
        tags: Optional[Dict[str, object]] = None,
    ) -> List[Flow]:
        """Inject one launch batch at the current time.

        ``transfers`` holds ``(size, path, channel[, rank])`` per flow — a
        collective's same-instant rank programs, a connection's channel
        fan-out — and everything else is common to the batch: the flows
        share ``job_id``, ``weight``, the completion/failure targets and
        the ``tags`` dict itself (not copied; read-only from here on).
        Equivalent to one :meth:`add_flow` per transfer, in order (same
        ids, rates and completion times), at one route check per distinct
        path, one structural delta in the solver and one observer call.
        A path given as a tuple is kept, not copied, so every flow of a
        route shares the tuple its connection holds.

        All-or-nothing: raises :class:`LinkDownError` when any path
        crosses a link that is currently down (a stale connection caching
        a pre-fault route) before a single flow entered the network.
        """
        # With a link down, each distinct path of the batch is checked once.
        checked = {} if self.topology._down else self._links_of_path
        flows: List[Flow] = []
        number = self._flows_injected
        now = self.now
        for transfer in transfers:
            size, path, channel = transfer[0], transfer[1], transfer[2]
            path_t = tuple(path)
            links = checked.get(path_t)
            if links is None:
                links = checked[path_t] = self._checked_route(path_t)
            flow = Flow(
                size, path_t, f"flow{number}", job_id, weight, gated,
                on_complete, on_fail, tags, links,
            )
            flow.channel = channel
            if len(transfer) > 3:
                flow.rank = transfer[3]
            flow.start_time = now
            flow._synced = now
            flows.append(flow)
            number += 1
        if not flows:
            return flows
        # Numbered only now that the whole batch is good: ids stay dense.
        self._flows_injected = number
        active = self._active
        for flow in flows:
            active[flow.flow_id] = flow
        self._solver.add_flows(flows)
        self._dirty = True
        for observer in self._observers:
            observer.on_flows_added(flows, now)
        return flows

    def _checked_route(self, path_t: Tuple[str, ...]) -> Tuple[str, ...]:
        """Prologue of every injection: the distinct links of ``path_t``.

        Raises if the path is not contiguous in the topology or crosses a
        link that is currently down.
        """
        # Links are never deleted from a topology (faults only mark them
        # down), so a path validated once stays structurally valid; the
        # cache turns the channelized-workload case (thousands of flows
        # over a few distinct routes) into one dict probe per injection
        # and hands every flow of a route the same distinct-links tuple.
        links = self._links_of_path.get(path_t)
        if links is None:
            self.topology.validate_path(path_t)
            links = self._links_of_path[path_t] = tuple(dict.fromkeys(path_t))
        # Probe the topology's down-link set directly on this per-route path.
        if self.topology._down:
            for link_id in links:
                if not self.topology.link_is_up(link_id):
                    raise LinkDownError(
                        f"flow path crosses down link {link_id!r}"
                    )
        return links

    def cancel_flow(self, flow: Flow) -> None:
        """Remove an in-flight flow without firing its completion callback.

        Used to stop background flows and to tear down connections during
        reconfiguration.  Observers receive ``on_flow_cancelled`` so
        lifecycle trackers do not leak an in-flight entry.  Cancelling a
        flow that already completed, failed, or was cancelled is a no-op
        (fault storms cancel liberally), so observers are notified and
        ``flows_cancelled`` is bumped exactly once per flow.
        """
        if flow.flow_id not in self._active:
            return
        self._remove_flow(flow)
        self.flows_cancelled += 1
        for observer in self._observers:
            observer.on_flow_cancelled(flow, self.now)

    def fail_flow(self, flow: Flow, error: BaseException) -> None:
        """Kill an in-flight flow with a fault.

        Like :meth:`cancel_flow` but the flow is marked ``failed`` with
        ``error`` attached, observers receive ``on_flow_failed``, and the
        flow's ``on_fail`` callback fires (``on_complete`` never does).
        Failing a flow that already left the network is a no-op.
        """
        if flow.flow_id not in self._active:
            return
        self._remove_flow(flow)
        flow.failed = True
        flow.error = error
        self.flows_failed += 1
        for observer in self._observers:
            observer.on_flow_failed(flow, self.now)
        if flow.on_fail is not None:
            flow.on_fail(flow, self.now, error)

    def _remove_flow(self, flow: Flow) -> None:
        """Shared teardown of cancel/fail: settle, unplumb, mark dirty."""
        self._settle(flow)
        solver = self._solver
        # The slot's size column now holds what the flow delivered.
        solver.size[flow._slot] -= solver.remaining[flow._slot]
        solver.remove_flows((flow,))
        flow._heap_epoch += 1
        self.heap_invalidations += 1
        del self._active[flow.flow_id]
        self._dirty = True

    def gate_flow(self, flow: Flow, gated: bool) -> None:
        """Pause (``gated=True``) or resume a flow.

        This is the mechanism behind the time-window traffic scheduling
        policy: the MCCS transport engine withholds a tenant's traffic
        while a prioritized tenant is busy.
        """
        if flow.gated != gated:
            self._settle(flow)
            flow.gated = gated
            self._solver.set_active(flow, flow.active)
            self._dirty = True
            for observer in self._observers:
                observer.on_flow_gated(flow, gated, self.now)

    def active_flows(self) -> List[Flow]:
        """All flows currently in the network (including gated ones)."""
        return list(self._active.values())

    def active_flow_count(self) -> int:
        """Number of flows in the network, without materializing the list."""
        return len(self._active)

    def set_link_capacity(self, link_id: str, capacity: float) -> None:
        """Change a link's capacity at the current time (rate limiting)."""
        if link_id not in self._capacities:
            raise KeyError(f"unknown link {link_id!r}")
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._capacities[link_id] = capacity
        self._solver.set_capacity(link_id, capacity)
        self._dirty = True

    def set_link_bandwidth(self, link_id: str, capacity: float) -> None:
        """Live bandwidth change with route re-resolution (WAN drift).

        Same exact capacity mutation as :meth:`set_link_capacity`, plus a
        topology routing-epoch bump so consumers with pinned paths
        (:class:`~repro.transport.connections.ConnectionTable`)
        re-resolve and the resized link is actually reconsidered by
        ECMP.  In-flight flows keep their paths and simply see the new
        fair-share rates.
        """
        self.set_link_capacity(link_id, capacity)
        self.topology.bump_routing_epoch()

    def link_capacity(self, link_id: str) -> float:
        return self._capacities[link_id]

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def fail_link(self, link_id: str, *, reason: Optional[str] = None) -> List[Flow]:
        """Take a link down at the current time.

        Every in-flight flow crossing the link is killed via
        :meth:`fail_flow` with a :class:`LinkDownError`; subsequent
        path enumeration (:meth:`Topology.shortest_paths`) excludes the
        link until :meth:`restore_link`.  Returns the killed flows.
        Failing an already-down link is a no-op.
        """
        if not self.topology.set_link_state(link_id, up=False):
            return []
        detail = f"link {link_id!r} went down" + (f" ({reason})" if reason else "")
        victims = [f for f in self._active.values() if link_id in f.links]
        for flow in victims:
            self.fail_flow(flow, LinkDownError(detail))
        self._dirty = True
        return victims

    def restore_link(self, link_id: str) -> bool:
        """Bring a previously failed link back up; True if it was down."""
        changed = self.topology.set_link_state(link_id, up=True)
        if changed:
            self._dirty = True
        return changed

    def link_is_up(self, link_id: str) -> bool:
        return self.topology.link_is_up(link_id)

    def link_utilization(self, min_utilization: float = 0.0) -> Dict[str, float]:
        """Current utilization (allocated rate / capacity) per link.

        This is the "link utilization" signal the paper's provider keeps
        confidential but consumes internally for policy decisions; only
        links at or above ``min_utilization`` are reported.
        """
        self._ensure_rates()
        return self._solver.link_utilization(min_utilization)

    def link_bytes(self) -> Dict[str, float]:
        """Bytes each link carried since time 0 (links that carried any):
        the sizes of the completed flows crossing it plus ``size -
        remaining`` at now of the cancelled, failed and in-network ones.

        Rates are piecewise constant, so this is the exact integral of the
        link's rate; a windowed rate is the difference of two readings.
        Reading settles nothing and schedules nothing.
        """
        solver = self._solver
        totals = solver.link_bytes(self.now)
        return {solver._link_ids[i]: float(totals[i]) for i in np.flatnonzero(totals)}

    def perf_counters(self) -> Dict[str, int]:
        """Engine-core performance counters for telemetry and benchmarks.

        ``solver_rebuilds_avoided`` counts recomputations that reused the
        persistent incidence structure instead of rebuilding it;
        ``solver_full_rebuilds`` counts the structure (re)builds that did
        happen (initial build plus tombstone compactions);
        ``solver_memo_hits`` counts the scalar solves answered from the
        solver's memo of allocations it has already computed.
        """
        solver = self._solver
        return {
            "rate_recomputations": self.rate_recomputations,
            "flows_completed": self.flows_completed,
            "flows_cancelled": self.flows_cancelled,
            "flows_failed": self.flows_failed,
            "heap_pushes": self.heap_pushes,
            "heap_invalidations": self.heap_invalidations,
            "stale_heap_pops": self.stale_heap_pops,
            "solver_coalesced_solves": self.solver_coalesced_solves,
            "solver_full_rebuilds": solver.full_rebuilds,
            "solver_delta_updates": solver.delta_updates,
            "solver_rebuilds_avoided": max(
                self.rate_recomputations - solver.full_rebuilds, 0
            ),
            "solver_last_delta": solver.last_delta,
            "solver_delta_total": solver.delta_flows_total,
            "solver_solves_skipped": solver.solves_skipped,
            "solver_scalar_solves": solver.scalar_solves,
            "solver_memo_hits": solver.memo_hits,
        }

    # ------------------------------------------------------------------
    # event management
    # ------------------------------------------------------------------
    def schedule(self, when: float, callback: EventCallback) -> int:
        """Run ``callback`` at absolute time ``when`` (clamped to now).

        Returns the event's sequence number, which is also
        :attr:`last_event_seq` until the next event is scheduled.  Events
        due at one instant fire in sequence order, so two events with
        adjacent numbers and one due time fire back to back.
        """
        when = max(when, self.now)
        seq = self.last_event_seq = next(self._event_seq)
        heapq.heappush(self._events, (when, seq, callback))
        return seq

    def call_in(self, delay: float, callback: EventCallback) -> int:
        """Run ``callback`` after ``delay`` seconds; returns the event's
        sequence number (see :meth:`schedule`)."""
        if delay < 0:
            raise ValueError("delay must be non-negative")
        return self.schedule(self.now + delay, callback)

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        """Advance the simulation.

        Args:
            until: Stop once the clock would pass this absolute time; the
                clock is left exactly at ``until``.  ``None`` runs to
                quiescence (no events, no active ungated flows).

        Returns:
            The clock value when the loop stopped.
        """
        try:
            return self._run(until)
        finally:
            # Materialize every in-flight flow's lazy progress so callers
            # observe exact ``remaining`` values between run() calls.
            self._settle_all()

    def _run(self, until: Optional[float]) -> float:
        while True:
            self._ensure_rates()
            next_completion = self._peek_completion()
            next_event = self._events[0][0] if self._events else math.inf
            t = min(next_completion, next_event)
            if math.isinf(t):
                if until is not None and until > self.now:
                    self._advance_clock(until)
                self._check_quiescent()
                return self.now
            if until is not None and t > until:
                self._advance_clock(max(until, self.now))
                return self.now
            self._advance_clock(t)
            if next_completion <= next_event + _TIME_EPS:
                self._complete_flows(self._collect_finishing(next_completion))
            self._fire_due_events()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _ensure_rates(self) -> None:
        if not self._dirty:
            return
        self._recompute()
        self._dirty = False
        self.rate_recomputations += 1

    def _complete_flows(self, finishing: List[Flow]) -> None:
        completed: List[Flow] = []
        now = self.now
        active = self._active
        for flow in finishing:
            if flow.flow_id not in active:
                continue
            flow.end_time = now
            del active[flow.flow_id]
            flow._heap_epoch += 1
            completed.append(flow)
        if completed:
            self._solver.remove_flows(completed)
            for flow in completed:
                # All bytes delivered, anchored at now.
                flow._remaining = 0.0
                flow._synced = now
            self.flows_completed += len(completed)
            self._dirty = True
            for observer in self._observers:
                observer.on_flows_completed(completed, now)
        # Fire callbacks after all bookkeeping so that callbacks observe a
        # consistent network state (and may inject follow-up flows).
        for flow in completed:
            if flow.on_complete is not None:
                flow.on_complete(flow, now)

    def _fire_due_events(self) -> None:
        while self._events and self._events[0][0] <= self.now + _TIME_EPS:
            _, _, callback = heapq.heappop(self._events)
            callback()

    def _check_quiescent(self) -> None:
        stuck = [
            f
            for f in self._active.values()
            if f.active and f.rate <= 0 and f.remaining > _BYTE_EPS
        ]
        if stuck:
            raise SimulationError(
                "simulation stalled with active zero-rate flows: "
                + ", ".join(f.flow_id for f in stuck[:5])
            )

    def _settle(self, flow: Flow) -> None:
        """Materialize ``flow.remaining`` at the current clock value."""
        solver = flow._arena
        if solver is None:
            return  # already left the network: no further progress
        slot = flow._slot
        synced = solver.synced[slot]
        if synced < self.now:
            # ``flow.active`` inlined: this and the other hot-loop sites
            # below account for hundreds of thousands of property calls
            # per large run.
            if flow.end_time is None and not flow.gated:
                rate = solver.rate[slot]
                if rate > 0:
                    rem = solver.remaining[slot] - rate * (self.now - synced)
                    solver.remaining[slot] = rem if rem > 0.0 else 0.0
            solver.synced[slot] = self.now

    def _settle_all(self) -> None:
        if not self._active:
            return
        solver = self._solver
        # One debit pass over every in-network slot (same IEEE expression
        # as the scalar settle); a slot is in use exactly while its flow
        # is in the network, and active exactly while that flow is ungated.
        idx = np.flatnonzero(solver._in_use)
        self._debit(solver, idx, solver._active[idx])

    def _debit(self, solver, idx: np.ndarray, eligible: np.ndarray) -> np.ndarray:
        """Settle slots ``idx`` (debited where ``eligible``) at now and
        return their remaining bytes."""
        now = self.now
        syn = solver.synced[idx]
        rate = solver.rate[idx]
        rem = solver.remaining[idx]
        mask = eligible & (syn < now) & (rate > 0.0)
        rem = np.where(mask, np.maximum(rem - rate * (now - syn), 0.0), rem)
        solver.remaining[idx] = rem
        solver.synced[idx] = now
        return rem

    #: Changed-set size at which rate installation switches from the
    #: per-flow loop to the vectorized batch.
    _BATCH_MIN = 16

    def _recompute(self) -> None:
        solver = self._solver
        caps = None
        if self.interference_penalty > 0:
            caps = solver.scaled_caps(self.interference_penalty)
        changed, rates = solver.solve(caps)
        delta = solver.last_delta
        if delta > 1:
            self.solver_coalesced_solves += delta - 1
        if not changed.size:
            return
        if len(changed) >= self._BATCH_MIN:
            self._install_rates_batch(solver, changed, rates)
        else:
            self._install_rates(solver, changed.tolist(), rates)
        if self._observers:
            # One hand-off per recomputation: the moved slots still in the
            # network, their rates and bottleneck link indices.
            moved = changed[solver._in_use[changed]]
            if moved.size:
                new_rates = rates[moved]
                bneck = solver._bneck[moved]
                now = self.now
                for observer in self._observers:
                    observer.on_rates_changed(moved, new_rates, bneck, now)

    def _install_rates(self, solver, clist: List[int], rates) -> None:
        """Per-flow settle + rate install + ETA re-anchor."""
        table = solver._slots
        now = self.now
        for slot in clist:
            flow = table[slot]
            if flow is None:
                continue
            # Settle under the *old* rate before installing the new one,
            # then re-anchor the ETA; the stale heap entry dies via epoch.
            self._settle(flow)
            rate = float(rates[slot])
            solver.rate[slot] = rate
            flow._heap_epoch += 1
            self.heap_invalidations += 1
            if flow.end_time is None and not flow.gated and rate > 0:
                eta = now + float(solver.remaining[slot]) / rate
                heapq.heappush(
                    self._heap,
                    (eta, next(self._heap_seq), flow._heap_epoch, flow),
                )
                self.heap_pushes += 1

    def _install_rates_batch(self, solver, changed: np.ndarray, rates) -> None:
        """Vectorized settle + rate install + ETA re-anchor for a batch.

        Same arithmetic as the per-flow loop above — settle under the old
        rate (``remaining - rate * dt`` elementwise), install the new
        rates, derive ETAs in one division — over the changed slots
        themselves, so the allocation and every completion timestamp stay
        bit-identical; only the epoch bumps and heap pushes remain per
        flow.
        """
        slots = changed[solver._in_use[changed]]  # removed flows are gone
        if not slots.size:
            return
        eligible = solver._active[slots]
        rem = self._debit(solver, slots, eligible)
        nr = rates[slots]
        solver.rate[slots] = nr
        positive = nr > 0.0
        # An unrated slot pushes nothing, so its divisor may be anything.
        etas = (self.now + rem / np.where(positive, nr, 1.0)).tolist()
        push = (eligible & positive).tolist()
        table = solver._slots
        heap = self._heap
        heap_seq = self._heap_seq
        pushes = 0
        for i, slot in enumerate(slots.tolist()):
            flow = table[slot]
            flow._heap_epoch += 1
            if push[i]:
                heapq.heappush(
                    heap, (etas[i], next(heap_seq), flow._heap_epoch, flow)
                )
                pushes += 1
        self.heap_invalidations += len(etas)
        self.heap_pushes += pushes

    def _peek_completion(self) -> float:
        """Earliest valid completion ETA, dropping stale heap entries.

        The liveness predicate (``_heap_entry_live``) is inlined here and
        in :meth:`_collect_finishing`: both run once per heap entry ever
        pushed, and the call overhead alone was visible at 100k flows.
        """
        heap = self._heap
        active = self._active
        pops = 0
        while heap:
            eta, _, epoch, flow = heap[0]
            if (
                flow._heap_epoch == epoch
                and flow.end_time is None
                and not flow.gated
                and flow.flow_id in active
            ):
                if pops:
                    self.stale_heap_pops += pops
                return eta
            heapq.heappop(heap)
            pops += 1
        if pops:
            self.stale_heap_pops += pops
        return math.inf

    def _collect_finishing(self, t: float) -> List[Flow]:
        """Pop every flow whose valid ETA falls within ``t`` (+epsilon)."""
        finishing: List[Flow] = []
        heap = self._heap
        active = self._active
        limit = t + _TIME_EPS
        while heap:
            eta, _, epoch, flow = heap[0]
            if (
                flow._heap_epoch == epoch
                and flow.end_time is None
                and not flow.gated
                and flow.flow_id in active
            ):
                if eta > limit:
                    break
                heapq.heappop(heap)
                finishing.append(flow)
            else:
                heapq.heappop(heap)
                self.stale_heap_pops += 1
        return finishing

    def _advance_clock(self, t: float) -> None:
        """O(1) clock advance: flow progress stays lazy (virtual bytes)."""
        if t < self.now - _TIME_EPS:
            raise SimulationError(f"time went backwards: {t} < {self.now}")
        self.now = max(t, self.now)
