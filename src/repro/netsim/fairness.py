"""Weighted max-min fair rate allocation via progressive filling.

The paper's large-scale simulator "assumes per-flow fairness" (§6.5); this
module implements the canonical progressive-filling (water-filling)
algorithm that realizes weighted max-min fairness over a capacitated link
set.  Two implementations are provided:

* :func:`progressive_filling` — a direct, readable reference version; the
  rate oracle of the unit/property tests.
* :class:`IncrementalFairnessSolver` — the engine's persistent solver.  It
  keeps the link index, the CSR-style flow/link incidence arrays, and the
  weight vector alive across recomputations, applying O(Δ) structural
  updates on flow add/remove/gate and capacity change; only the numpy
  water-filling itself is global (max-min fairness is a global property).

Both produce identical allocations (tested against each other with
hypothesis, including under randomized churn sequences).
"""

from __future__ import annotations

import math
from itertools import compress, filterfalse
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .flows import Flow

_EPS = 1e-12


def progressive_filling(
    flows: Sequence[Flow], capacities: Mapping[str, float]
) -> Dict[str, float]:
    """Reference weighted max-min allocation.

    Args:
        flows: Flows to allocate; gated/completed flows receive rate 0.
        capacities: Map of link id -> capacity (bytes/s).

    Returns:
        Map of flow id -> rate in bytes/s.
    """
    rates: Dict[str, float] = {f.flow_id: 0.0 for f in flows}
    active = [f for f in flows if f.active]
    for flow in active:
        for link in flow.path:
            if link not in capacities:
                raise KeyError(f"flow {flow.flow_id} uses unknown link {link!r}")

    residual = dict(capacities)
    link_members: Dict[str, List[Flow]] = {}
    for flow in active:
        for link in flow.links:
            link_members.setdefault(link, []).append(flow)

    frozen: set = set()
    while len(frozen) < len(active):
        # Fair share of each link among its still-unfrozen flows.
        best_share = None
        for link, members in link_members.items():
            weight = sum(f.weight for f in members if f.flow_id not in frozen)
            if weight <= 0:
                continue
            share = residual[link] / weight
            if best_share is None or share < best_share - _EPS:
                best_share = share
        if best_share is None:
            break
        best_share = max(best_share, 0.0)
        # Freeze every flow crossing a bottleneck link at weight*share.
        to_freeze: List[Flow] = []
        for link, members in link_members.items():
            weight = sum(f.weight for f in members if f.flow_id not in frozen)
            if weight <= 0:
                continue
            if residual[link] / weight <= best_share + _EPS:
                for f in members:
                    if f.flow_id not in frozen:
                        to_freeze.append(f)
        if not to_freeze:
            break
        for f in to_freeze:
            if f.flow_id in frozen:
                continue
            rate = f.weight * best_share
            rates[f.flow_id] = rate
            frozen.add(f.flow_id)
            for link in f.links:
                residual[link] = max(residual[link] - rate, 0.0)
    return rates


#: Live-entry count at or below which :meth:`IncrementalFairnessSolver.
#: solve` runs its scalar (pure-Python) progressive-filling core instead
#: of the vectorized one.  Small problems are dominated by numpy call
#: overhead (~1 µs per op, ~15 ops per round); the scalar core performs
#: the *same arithmetic in the same order*, so the allocation is
#: bit-identical either way (asserted by the hypothesis churn suite).
SCALAR_SOLVE_MAX_ENTRIES = 96

#: Signatures :meth:`IncrementalFairnessSolver.solve` remembers (oldest
#: evicted first).  A steady-state collective poses a handful of distinct
#: problems per iteration; an entry is two small arrays and a key that
#: shares the solver's own per-slot tuples.
SOLVE_MEMO_ENTRIES = 256

_EMPTY_CHANGED = np.zeros(0, dtype=np.int64)


class IncrementalFairnessSolver:
    """Persistent weighted max-min solver with O(Δ) structural updates.

    The solver owns the link index, the capacity vector, the flat
    flow/link incidence arrays (CSR-style: every registered flow appends
    one contiguous run of entries), and the weight/active vectors.  Flow
    churn mutates this state in O(links-per-flow); nothing is rebuilt per
    recomputation.  Removed flows leave tombstoned incidence entries that
    are purged by an occasional compaction pass once they outnumber the
    live entries — the only "full rebuild" left, counted in
    :attr:`full_rebuilds` so telemetry can show rebuilds being replaced by
    Δ-updates.

    :meth:`solve` runs the same progressive filling as
    :func:`progressive_filling` over the persistent arrays and returns the
    slots whose rate actually moved, which is what lets the engine
    invalidate only the completion-heap entries that changed.  A solve
    with no pending structural deltas is answered from the cached
    allocation (``solves_skipped``), and sub-:data:`SCALAR_SOLVE_MAX_ENTRIES`
    problems take a scalar fast path — both bit-identical to the full
    vectorized solve.  The scalar path is a pure function of the ordered
    ``(path id, weight)`` signature of the live slots, which the structural
    updates keep in ``_sig``, so a problem seen before under the same
    capacities is answered from a memo (``memo_hits``); ``set_capacity``
    empties it.

    A registered flow's slot (``flow._slot``; ``flow._arena`` is the
    solver) is its only slot: the ``remaining`` / ``rate`` / ``synced``
    columns hold its data plane, copied in at registration and back out
    at removal.  :class:`~repro.netsim.engine.FlowSimulator` settles those
    columns, and reads ``_slots`` (the slot table, read-only to callers),
    at the slots :meth:`solve` returns.

    The ``size`` column and the per-link ``_carried`` totals make the
    bytes each link carried a query (:meth:`link_bytes`): rates are
    piecewise constant, so a flow's delivered bytes, ``size`` less its
    remaining bytes at any instant, are the exact integral of its rate.
    """

    _GROW = 1.5

    def __init__(self, capacities: Mapping[str, float]) -> None:
        self._link_ids: List[str] = list(capacities)
        self._link_index: Dict[str, int] = {
            link: i for i, link in enumerate(self._link_ids)
        }
        self._caps = np.array(
            [capacities[l] for l in self._link_ids], dtype=float
        )
        # per-slot state (a slot is a stable integer id for one flow)
        self._slots: List[Optional[Flow]] = []
        self._free_slots: List[int] = []
        self._weights = np.zeros(0, dtype=float)
        self._active = np.zeros(0, dtype=bool)
        self._in_use = np.zeros(0, dtype=bool)
        self._rates = np.zeros(0, dtype=float)
        # the data plane: bytes left as of ``synced``, draining at the
        # installed ``rate`` (which trails ``_rates`` until the engine has
        # settled the slot under the old one)
        self.remaining = np.zeros(0, dtype=float)
        self.rate = np.zeros(0, dtype=float)
        self.synced = np.zeros(0, dtype=float)
        # a flow's size while it is in the network; once it has left, the
        # bytes it delivered (the engine debits a cancelled or failed
        # flow's undelivered bytes; a completed flow delivered its size)
        self.size = np.zeros(0, dtype=float)
        # per-slot index (into ``_link_ids``) of the link that froze the
        # slot in the last solve (-1 = not frozen / unknown); the causal
        # tracer attributes a flow's current rate to it.
        self._bneck = np.full(0, -1, dtype=np.int64)
        # per-slot contiguous incidence span: slot -> (start, length)
        self._spans: List[Tuple[int, int]] = []
        self._flat_links = np.zeros(64, dtype=np.int64)
        self._flat_slots = np.zeros(64, dtype=np.int64)
        self._nnz = 0
        self._dead_nnz = 0
        # per-link bytes delivered by the slots compaction purged
        self._carried = np.zeros(len(self._caps), dtype=float)
        # slots whose rate was force-zeroed since the last solve (flow
        # removed or gated while carrying a nonzero rate); they are part
        # of the next solve's changed set without scanning every slot.
        self._deactivated: List[int] = []
        # path -> path id, and path id -> link-index list (the link index
        # is fixed at construction, so these never go stale).
        self._path_idx: Dict[Tuple[str, ...], int] = {}
        self._path_links: List[List[int]] = []
        # in-use slot -> (path id, weight), None while gated; insertion
        # order is incidence order (runs are appended and compaction keeps
        # their order), so the live values are the scalar core's input.
        self._sig: Dict[int, Optional[Tuple[int, float]]] = {}
        self._live_entries = 0  # incidence entries of the live slots
        self._memo: Dict[tuple, Tuple[List[float], List[int]]] = {}
        # counters (read by the engine's perf_counters())
        self.full_rebuilds = 1  # the initial build
        self.delta_updates = 0
        self.delta_flows_total = 0
        self.last_delta = 0
        self.solves_skipped = 0
        self.scalar_solves = 0
        self.memo_hits = 0
        self._pending_delta = 0
        self._solved_once = False
        self._last_override = False

    # -- structural updates (all O(Δ)) ---------------------------------
    def add_flow(self, flow: Flow) -> None:
        self.add_flows((flow,))

    def add_flows(self, flows: Sequence[Flow]) -> None:
        """Register one batch, in order: each flow takes a slot — its one
        slot, data plane included — and appends its incidence run."""
        table, free, spans, sig = self._slots, self._free_slots, self._spans, self._sig
        need = len(table) + len(flows) - len(free)
        if need > len(self._weights):
            self._grow_slots(need)
        path_idx, path_links = self._path_idx, self._path_links
        weights, active, in_use = self._weights, self._active, self._in_use
        remaining, rate, synced, size = (
            self.remaining, self.rate, self.synced, self.size
        )
        start = nnz = self._nnz
        entry_links: List[int] = []
        entry_slots: List[int] = []
        for flow in flows:
            pid = path_idx.get(flow.links)
            if pid is None:
                link_idx = []
                for link in flow.links:
                    idx = self._link_index.get(link)
                    if idx is None:
                        raise KeyError(
                            f"flow {flow.flow_id} uses unknown link {link!r}"
                        )
                    link_idx.append(idx)
                pid = path_idx[flow.links] = len(path_links)
                path_links.append(link_idx)
            link_idx = path_links[pid]
            if free:
                slot = free.pop()
                table[slot] = flow
            else:
                slot = len(table)
                table.append(flow)
                spans.append((0, 0))
            k = len(link_idx)
            spans[slot] = (nnz, k)
            nnz += k
            entry_links += link_idx
            entry_slots += [slot] * k
            live = flow.end_time is None and not flow.gated
            if live:
                sig[slot] = (pid, float(flow.weight))
                self._live_entries += k
            else:
                sig[slot] = None
            # A free slot has rate 0 and no bottleneck (removal and growth
            # leave it so), so neither is written here.
            weights[slot] = flow.weight
            active[slot] = live
            in_use[slot] = True
            remaining[slot] = flow._remaining
            size[slot] = flow.size
            rate[slot] = flow._rate
            synced[slot] = flow._synced
            flow._arena = self
            flow._slot = slot
        if nnz > len(self._flat_links):
            self._grow_flat(nnz)
        self._flat_links[start:nnz] = entry_links
        self._flat_slots[start:nnz] = entry_slots
        self._nnz = nnz
        self._note_delta(len(flows))

    def remove_flow(self, flow: Flow) -> None:
        self.remove_flows((flow,))

    def remove_flows(self, flows: Sequence[Flow]) -> None:
        """Unregister a batch: each flow's data plane is copied back to
        its plain attributes and its slot tombstoned.  Flows not in this
        solver are ignored."""
        table, spans, sig, rates = self._slots, self._spans, self._sig, self._rates
        removed = 0
        for flow in flows:
            slot = flow._slot
            if flow._arena is not self or table[slot] is not flow:
                continue
            table[slot] = None
            k = spans[slot][1]
            # The slot is reusable only after compaction purges its
            # incidence entries; until then reuse would misattribute them.
            self._dead_nnz += k
            if sig.pop(slot) is not None:
                self._live_entries -= k
            if rates[slot] != 0.0:
                # Part of the next solve's changed set: rates are updated
                # in place, so zeroed slots must be remembered explicitly.
                self._deactivated.append(slot)
                rates[slot] = 0.0
            self._bneck[slot] = -1
            self._in_use[slot] = self._active[slot] = False
            flow._remaining = float(self.remaining[slot])
            flow._rate = float(self.rate[slot])
            flow._synced = float(self.synced[slot])
            flow._arena = None
            flow._slot = -1
            removed += 1
        self._note_delta(removed)

    def set_active(self, flow: Flow, active: bool) -> None:
        if flow._arena is self:
            slot = flow._slot
            self._active[slot] = active
            live = self._sig[slot] is not None
            if not active:
                if live:
                    self._sig[slot] = None
                    self._live_entries -= self._spans[slot][1]
                self._bneck[slot] = -1  # gated: no bottleneck (bottleneck_of_slot)
                if self._rates[slot] != 0.0:
                    self._deactivated.append(slot)
                    self._rates[slot] = 0.0
            elif not live:
                self._sig[slot] = (self._path_idx[flow.links], float(flow.weight))
                self._live_entries += self._spans[slot][1]
            self._note_delta(1)

    def set_capacity(self, link_id: str, capacity: float) -> None:
        self._caps[self._link_index[link_id]] = capacity
        # Every remembered allocation was solved under the old capacities.
        self._memo.clear()
        self._note_delta(1)

    def _note_delta(self, n: int) -> None:
        self._pending_delta += n
        self.delta_updates += n

    def _grow_slots(self, need: int) -> None:
        size = max(need, int(len(self._weights) * self._GROW) + 8)
        for name in ("_weights", "_rates", "remaining", "rate", "synced", "size"):
            old = getattr(self, name)
            new = np.zeros(size, dtype=float)
            new[: len(old)] = old
            setattr(self, name, new)
        for name in ("_active", "_in_use"):
            old = getattr(self, name)
            new = np.zeros(size, dtype=bool)
            new[: len(old)] = old
            setattr(self, name, new)
        old = self._bneck
        new = np.full(size, -1, dtype=np.int64)
        new[: len(old)] = old
        self._bneck = new

    def _grow_flat(self, need: int) -> None:
        size = max(need, int(len(self._flat_links) * self._GROW) + 8)
        for name in ("_flat_links", "_flat_slots"):
            old = getattr(self, name)
            new = np.zeros(size, dtype=np.int64)
            new[: self._nnz] = old[: self._nnz]
            setattr(self, name, new)

    def _compact(self) -> None:
        """Purge tombstoned incidence entries and reclaim free slots; the
        dead slots' delivered bytes are folded into ``_carried`` first."""
        keep = self._in_use[self._flat_slots[: self._nnz]]
        dead = ~keep
        self._carried += np.bincount(
            self._flat_links[: self._nnz][dead],
            weights=self.size[self._flat_slots[: self._nnz][dead]],
            minlength=len(self._caps),
        )
        self._flat_links[: int(keep.sum())] = self._flat_links[: self._nnz][keep]
        self._flat_slots[: int(keep.sum())] = self._flat_slots[: self._nnz][keep]
        self._nnz = int(keep.sum())
        self._dead_nnz = 0
        # Recompute the spans of surviving slots (runs stay contiguous
        # because compaction preserves order) and free the dead slots.
        self._free_slots = []
        spans = [(0, 0)] * len(self._slots)
        pos = 0
        while pos < self._nnz:
            slot = int(self._flat_slots[pos])
            end = pos
            while end < self._nnz and self._flat_slots[end] == slot:
                end += 1
            spans[slot] = (pos, end - pos)
            pos = end
        self._spans = spans
        for slot, flow in enumerate(self._slots):
            if flow is None:
                self._free_slots.append(slot)
        self.full_rebuilds += 1

    # -- queries --------------------------------------------------------
    def capacity(self, link_id: str) -> float:
        return float(self._caps[self._link_index[link_id]])

    def link_bytes(self, now: float) -> np.ndarray:
        """Per-link bytes delivered up to ``now`` (capacity order).  A live
        slot's remaining bytes are derived at ``now`` with the engine's
        settle expression and not written back: reading changes nothing."""
        n = len(self._slots)
        syn, rate, rem = self.synced[:n], self.rate[:n], self.remaining[:n]
        moving = self._active[:n] & (syn < now) & (rate > 0.0)
        rem = np.where(moving, np.maximum(rem - rate * (now - syn), 0.0), rem)
        delivered = self.size[:n] - np.where(self._in_use[:n], rem, 0.0)
        nnz = self._nnz
        return self._carried + np.bincount(
            self._flat_links[:nnz],
            weights=delivered[self._flat_slots[:nnz]],
            minlength=len(self._caps),
        )

    def link_utilization(self, min_utilization: float = 0.0) -> Dict[str, float]:
        """load/capacity per link from the most recent :meth:`solve`.

        Removed flows have their rate zeroed, so tombstoned incidence
        entries add exactly 0.0 to the loads.
        """
        if not self._live_entries:  # every rate, and so every load, is 0
            return {}
        loads = np.bincount(
            self._flat_links[: self._nnz],
            weights=self._rates[self._flat_slots[: self._nnz]],
            minlength=len(self._caps),
        )
        with np.errstate(invalid="ignore"):
            util = loads / self._caps
        hot = np.flatnonzero(util >= max(min_utilization, 1e-300))
        return {self._link_ids[int(i)]: float(util[int(i)]) for i in hot}

    def scaled_caps(self, penalty: float) -> np.ndarray:
        """Capacities with the burst-interference model applied: links
        carrying active flows of two or more distinct jobs lose
        ``penalty`` of their capacity (see ``FlowSimulator.__init__``)."""
        jobs_on_link: Dict[int, set] = {}
        for slot, flow in enumerate(self._slots):
            if flow is None or not self._active[slot]:
                continue
            start, k = self._spans[slot]
            for idx in self._flat_links[start : start + k]:
                jobs_on_link.setdefault(int(idx), set()).add(flow.job_id)
        caps = self._caps.copy()
        scale = 1.0 - penalty
        for idx, jobs in jobs_on_link.items():
            if len(jobs) >= 2:
                caps[idx] *= scale
        return caps

    # -- the solve ------------------------------------------------------
    def solve(
        self, capacities: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Progressive filling over the persistent structure.

        Args:
            capacities: Optional per-link capacity override (same indexing
                as the solver's link order), used by the interference model.

        Returns:
            ``(changed_slots, rates)``: the slots whose allocation moved
            since the previous solve — a sorted ``int64`` array on every
            path, skipped, scalar and vectorized alike — and the full
            per-slot rate vector (the solver's live array — treat it as
            read-only).
        """
        override = capacities is not None
        if (
            self._pending_delta == 0
            and self._solved_once
            and not override
            and not self._last_override
        ):
            # Nothing changed structurally since the previous solve with
            # default capacities: the cached allocation is still exact.
            self.last_delta = 0
            self.solves_skipped += 1
            return _EMPTY_CHANGED, self._rates
        self.last_delta = self._pending_delta
        self.delta_flows_total += self._pending_delta
        self._pending_delta = 0
        self._last_override = override
        self._solved_once = True
        if self._dead_nnz > 64 and self._dead_nnz * 2 > self._nnz:
            self._compact()
        caps = self._caps if capacities is None else capacities
        sig = self._sig
        # Slots force-zeroed since the last solve (removed/gated while
        # rated) are changed even though they are no longer live; slots
        # zeroed but reactivated before this solve are covered by the
        # live compare below instead.
        deact = self._deactivated
        if deact:
            self._deactivated = []
            deact = list(filterfalse(sig.get, deact))  # no signature: not live
        if self._live_entries == 0:
            if not deact:
                return _EMPTY_CHANGED, self._rates
            return np.sort(np.asarray(deact, dtype=np.int64)), self._rates
        if self._live_entries <= SCALAR_SOLVE_MAX_ENTRIES:
            self.scalar_solves += 1
            key = tuple(filter(None, sig.values()))
            result = None if override else self._memo.get(key)
            if result is not None:
                self.memo_hits += 1
            else:
                result = self._solve_scalar(caps, key)
                if not override:
                    memo = self._memo
                    if len(memo) >= SOLVE_MEMO_ENTRIES:
                        del memo[next(iter(memo))]
                    memo[key] = result
            # The live slots (those with a signature, in ``key`` order),
            # written one by one: a memo hit is a handful of slots, where
            # per-slot Python beats a numpy call's fixed cost.
            rates, bneck = self._rates, self._bneck
            changed = list(deact)  # deact may be ``_deactivated`` itself
            for slot, rate, link in zip(compress(sig, sig.values()), *result):
                bneck[slot] = link
                if rates[slot] != rate:
                    rates[slot] = rate
                    changed.append(slot)
            return np.array(sorted(changed), dtype=np.int64), rates
        flat_s = self._flat_slots[: self._nnz]
        alive = self._in_use & self._active
        entry_live = alive[flat_s]
        fl = self._flat_links[: self._nnz][entry_live]
        fs = flat_s[entry_live]
        # Compact both dimensions to what is live *this* solve: a large
        # fabric has thousands of links and registered slots, but a
        # typical recomputation touches a few hundred of each, and the
        # per-round numpy work below scales with these sizes.  The
        # remapping is order-preserving, so every bincount accumulates
        # the same values in the same order and the allocation stays
        # bit-identical to a full-width solve.
        live_mask = np.zeros(len(caps), dtype=bool)
        live_mask[fl] = True
        live_links = np.flatnonzero(live_mask)
        nl = live_links.size
        link_lut = np.empty(len(caps), dtype=np.int64)
        link_lut[live_links] = np.arange(nl)
        fl = link_lut[fl]
        active_slots = np.flatnonzero(alive)
        na = active_slots.size
        slot_lut = np.empty(len(alive), dtype=np.int64)
        slot_lut[active_slots] = np.arange(na)
        fs = slot_lut[fs]
        self._bneck[active_slots] = -1
        w = self._weights[active_slots]
        wE = w[fs]  # per-entry weight of the entry's flow
        # Per-flow fill level: the water level ``best`` of the round
        # that froze the flow; a flow's rate is ``weight * level``,
        # the same IEEE product the reference loop computes.
        levels = np.zeros(na, dtype=float)
        residual = caps[live_links]  # fancy index -> fresh copy
        share = np.empty(nl, dtype=float)
        freeze = np.empty(na, dtype=bool)
        # Progressive filling.  Frozen entries are dropped each round,
        # so late rounds touch shrinking arrays; dropped zero-weight
        # contributions never change the bincount partial sums.  The
        # frozen bandwidth leaving each link is computed as
        # ``(link_weight - next_link_weight) * best`` — the two
        # bincounts bracket the drop, so a separate aggregation of the
        # frozen entries is unnecessary (links without frozen entries
        # keep bit-identical partial sums and subtract exactly 0).
        link_weight = np.bincount(fl, weights=wE, minlength=nl)
        while True:
            share.fill(np.inf)
            np.divide(
                residual, link_weight, out=share, where=link_weight > 0
            )
            best = float(share.min())
            if not math.isfinite(best):
                break
            if best < 0.0:
                best = 0.0
            bottleneck = share <= best * (1 + 1e-9) + _EPS
            # The minimising link is live (weight > 0), so at least one
            # entry hits a bottleneck link and the loop always shrinks.
            hit = bottleneck[fl]
            freeze.fill(False)
            freeze[fs[hit]] = True
            levels[freeze] = best
            # Attribute each frozen slot to the (a) bottleneck link
            # that froze it, mapped back to global link/slot indices.
            self._bneck[active_slots[fs[hit]]] = live_links[fl[hit]]
            keep = ~freeze[fs]
            fl = fl[keep]
            fs = fs[keep]
            wE = wE[keep]
            if not fs.size:
                break
            new_weight = np.bincount(fl, weights=wE, minlength=nl)
            np.subtract(link_weight, new_weight, out=link_weight)
            np.multiply(link_weight, best, out=link_weight)
            np.subtract(residual, link_weight, out=residual)
            np.maximum(residual, 0.0, out=residual)
            link_weight = new_weight
        # active_slots is sorted, so only the deactivated slots need a sort.
        changed = self._install(active_slots, levels * w, deact)
        return (np.sort(changed) if deact else changed), self._rates

    def _install(
        self, slots: np.ndarray, rates: np.ndarray, deact: List[int]
    ) -> np.ndarray:
        """Write ``rates`` to ``slots``; returns the slots whose rate moved
        (in ``slots`` order), then the force-zeroed ``deact``."""
        changed = slots[self._rates[slots] != rates]
        self._rates[slots] = rates
        if deact:
            changed = np.concatenate(
                [changed, np.asarray(deact, dtype=np.int64)]
            )
        return changed

    def _solve_scalar(
        self, caps: np.ndarray, key: Tuple[Tuple[int, float], ...]
    ) -> Tuple[List[float], List[int]]:
        """Scalar progressive filling for small live sets.

        Performs exactly the arithmetic of the vectorized loop — per-link
        weight sums accumulate in incidence-entry order (the bincount
        order), the round water level is the same minimum, the freeze
        threshold/attribution/residual updates are the same IEEE
        expressions — so the allocation is bit-identical.  Below
        :data:`SCALAR_SOLVE_MAX_ENTRIES` entries this is several times
        faster than paying ~15 numpy-call overheads per round.

        ``key`` is the live slots' ``(path id, weight)`` in incidence
        order and ``caps`` the capacities: the result — per-slot rates and
        bottleneck link indices, aligned with ``key`` — depends on nothing
        else, which is what makes it safe to remember.
        """
        # Order-preserving local compaction of links, fused into one pass
        # that also builds the entry triples and the per-link weight sums
        # (accumulated in entry order, like the bincount).
        link_local: Dict[int, int] = {}
        links: List[int] = []  # local -> global link index
        path_links = self._path_links
        entries: List[Tuple[int, int, float]] = []
        link_weight: List[float] = []
        for si, (pid, wgt) in enumerate(key):
            for g_l in path_links[pid]:
                li = link_local.get(g_l)
                if li is None:
                    li = link_local[g_l] = len(links)
                    links.append(g_l)
                    link_weight.append(0.0)
                entries.append((li, si, wgt))
                link_weight[li] += wgt
        nl = len(links)
        ns = len(key)
        residual = [float(caps[g]) for g in links]
        levels = [0.0] * ns
        frozen = [False] * ns
        bneck = [-1] * ns
        while entries:
            best = math.inf
            shares = [math.inf] * nl
            for li in range(nl):
                lw = link_weight[li]
                if lw > 0.0:
                    sh = residual[li] / lw
                    shares[li] = sh
                    if sh < best:
                        best = sh
            if not math.isfinite(best):
                break
            if best < 0.0:
                best = 0.0
            thresh = best * (1 + 1e-9) + _EPS
            for li, si, _ in entries:
                if shares[li] <= thresh:
                    frozen[si] = True
                    levels[si] = best
                    bneck[si] = links[li]
            survivors = [e for e in entries if not frozen[e[1]]]
            if not survivors:
                break
            new_weight = [0.0] * nl
            for li, _, wgt in survivors:
                new_weight[li] += wgt
            for li in range(nl):
                r = residual[li] - (link_weight[li] - new_weight[li]) * best
                residual[li] = r if r > 0.0 else 0.0
            link_weight = new_weight
            entries = survivors
        return [wgt * level for (_, wgt), level in zip(key, levels)], bneck
