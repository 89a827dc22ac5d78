"""Causal tracing: one tree per collective, from shim to bottleneck link.

The paper's core observability pitch (§3, §5.3) is that the *service* can
see what tenant libraries cannot: where a collective's time actually went.
This module provides that substrate:

* :class:`CausalTrace` — **the** record of one issued collective, and the
  only per-collective trace product code writes.  The frontend opens one
  (:meth:`CausalTracer.open`) and hands it to the
  :class:`~repro.core.communicator.CollectiveInstance`, which owns it from
  there: every layer annotates the object it already holds, each fact once,
  under the one ``EVENT_*`` vocabulary below.  The span timeline
  (:func:`repro.telemetry.spans.collective_spans`) is a *view* rendered
  from these trees at export time, and the §4.3
  :class:`~repro.core.tracing.TraceRecord` is six scalars copied off the
  instance at its terminal state; no lifecycle fact is written twice.
  The trace carries its own identity (``trace_id``, tenant, comm, seq,
  kind, bytes, strategy version); decision events reference its
  ``trace_id``, and a launch batch's flow tags carry the trace itself.
* :class:`CausalTracer` — a :class:`~repro.netsim.engine.SimObserver`
  that keeps the live trees and a bounded ring of closed ones.  Flows
  tagged with ``trace=<CausalTrace>`` are adopted into that trace while it
  is open.  The record is columns: per attempt, one row per flow and,
  per rate recomputation, one row per moved traced flow — the start of
  its next *segment* ``(start, end, rate, bottleneck_link, co_tenants)``,
  co-tenants read from the solver's incidence.  :class:`FlowRecord` and
  :class:`RateSegment` are views, built only on query (``to_dict``,
  :meth:`CausalTracer.critical_path`, flight dumps).
* :class:`CriticalPathReport` — the exact-sum decomposition of one
  finished collective: ``queue + serialization + contention`` equals the
  measured duration by construction, per-hop time is grouped by the
  solver's per-round bottleneck attribution, and the co-tenant ledger
  quantifies who interfered for how long.
* :class:`FlightRecorder` — an always-on bounded ring of recent causal
  trees that snapshots itself on trigger events (deadline, heartbeat
  miss, crash, admission shed) so every chaos failure ships its own
  evidence.
"""

from __future__ import annotations

import itertools
from array import array
from dataclasses import dataclass, field
from operator import attrgetter
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..netsim.engine import FlowSimulator, SimObserver
from ..netsim.flows import Flow
from .ringbuffer import RingBuffer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .events import EventLog
    from .metrics import MetricsRegistry

#: Flight-recorder dumps kept (a ring; older dumps are evicted).
MAX_DUMPS = 16

#: Recent causal trees snapshotted into each flight-recorder dump.
SNAPSHOT_TRACES = 8

#: Closed causal trees the tracer keeps (a ring; older ones are evicted).
MAX_CLOSED = 512

#: Terminal trace states.
TRACE_COMPLETED = "completed"
TRACE_ABORTED = "aborted"
TRACE_FAILED = "failed"

#: The one vocabulary of lifecycle facts: ``CausalTrace.annotate`` kinds
#: (the instants of the rendered collective timeline) and the point
#: events of reconfiguration spans.
EVENT_RANK_LAUNCH = "rank_launch"
EVENT_FIRST_FLOW_START = "first_flow_start"
EVENT_LAST_FLOW_END = "last_flow_end"
EVENT_HELD = "held_by_reconfig"
EVENT_BARRIER_RESOLVED = "barrier_resolved"
EVENT_RANK_APPLIED = "rank_applied"
EVENT_RANK_FAILED = "rank_failed"
EVENT_RETRY = "retry"
EVENT_ABORTED = "aborted"


#: A traced flow's states, stored as the index into this tuple.
FLOW_STATES = ("active", "completed", "cancelled", "failed")
_ACTIVE, _COMPLETED, _CANCELLED, _FAILED = range(len(FLOW_STATES))

#: An attempt's row per flow: ``flow<n>``'s ``n``, start, rank and
#: channel (NaN: none), size, ideal time, end time and state.
_FLOW_ROW = 8
#: Its row per rate segment: the flow's place in the attempt, start, rate,
#: bottleneck link index and co-tenant set id.
_SEGMENT_ROW = 5
_NAN = float("nan")


@dataclass(slots=True)
class RateSegment:
    """One constant-rate interval of a traced flow (a view, built on query)."""

    start: float
    end: Optional[float]
    rate: float
    bottleneck: Optional[str]
    #: Tenants (other than the flow's own) with active, ungated flows on
    #: the bottleneck link when the segment opened.  Rate recomputations
    #: bracket membership changes on the flow's links, so the set is
    #: constant over the segment.
    co_tenants: Tuple[str, ...] = ()

    def to_dict(self) -> Dict[str, object]:
        return {
            "start": self.start,
            "end": self.end,
            "rate": self.rate,
            "bottleneck": self.bottleneck,
            "co_tenants": list(self.co_tenants),
        }


@dataclass(slots=True)
class FlowRecord:
    """One netsim flow's life inside a causal trace (a view, built on
    query from its attempt's columns)."""

    flow_id: str
    rank: Optional[int]
    channel: Optional[int]
    size: float
    path: Tuple[str, ...]
    #: size / min-capacity(path) at injection time — the flow's ideal
    #: transfer time with every link to itself (the serialization term).
    ideal_s: float
    t_start: float
    t_end: Optional[float] = None
    status: str = "active"  # one of FLOW_STATES
    segments: List[RateSegment] = field(default_factory=list)

    def bottlenecked_seconds(self) -> Dict[str, float]:
        """Seconds spent bottlenecked on each link, from the segments."""
        per_link: Dict[str, float] = {}
        for seg in self.segments:
            if seg.bottleneck is None or seg.end is None:
                continue
            per_link[seg.bottleneck] = (
                per_link.get(seg.bottleneck, 0.0) + (seg.end - seg.start)
            )
        return per_link

    def interference_seconds(self) -> Dict[str, float]:
        """Seconds of bottlenecked time shared with each co-tenant."""
        ledger: Dict[str, float] = {}
        for seg in self.segments:
            if seg.end is None:
                continue
            dt = seg.end - seg.start
            for tenant in seg.co_tenants:
                ledger[tenant] = ledger.get(tenant, 0.0) + dt
        return ledger

    def to_dict(self) -> Dict[str, object]:
        return {
            "flow_id": self.flow_id,
            "rank": self.rank,
            "channel": self.channel,
            "size": self.size,
            "path": list(self.path),
            "ideal_s": self.ideal_s,
            "start": self.t_start,
            "end": self.t_end,
            "status": self.status,
            "segments": [s.to_dict() for s in self.segments],
        }


@dataclass(slots=True, eq=False)
class TraceAttempt:
    """One launch attempt of a collective (retries open new attempts).

    Its record is append-only columns the tracer extends: a float row
    per flow (:data:`_FLOW_ROW` wide) beside the flows' paths, and a
    float row per rate segment (:data:`_SEGMENT_ROW` wide), whose
    co-tenant set id indexes ``co_sets``.
    """

    number: int
    t_start: float
    tracer: "CausalTracer"
    flow_rows: array = field(default_factory=lambda: array("d"))
    paths: List[Tuple[str, ...]] = field(default_factory=list)
    segment_rows: array = field(default_factory=lambda: array("d"))
    co_sets: List[Tuple[str, ...]] = field(default_factory=lambda: [()])

    @property
    def flows(self) -> Dict[str, FlowRecord]:
        """The attempt's flows by id, in adoption order (views)."""
        flow_rows = self.flow_rows
        segments: List[List[RateSegment]] = [[] for _ in self.paths]
        link_ids, rows, co_sets = self.tracer._link_ids, self.segment_rows, self.co_sets
        for k in range(0, len(rows), _SEGMENT_ROW):  # in time order
            i, start, rate, link, co_id = rows[k:k + _SEGMENT_ROW]
            own = segments[int(i)]
            if own:
                own[-1].end = start
            own.append(RateSegment(start, None, rate, link_ids[int(link)], co_sets[int(co_id)]))
        out = {}
        for i, (path, own) in enumerate(zip(self.paths, segments)):
            number, t_start, rank, channel, size, ideal, t_end, state = (
                flow_rows[i * _FLOW_ROW:(i + 1) * _FLOW_ROW]
            )
            end = None if state == _ACTIVE else t_end
            if own:
                own[-1].end = end
            flow_id = f"flow{int(number)}"
            out[flow_id] = FlowRecord(
                flow_id, None if rank != rank else int(rank),
                None if channel != channel else int(channel), size, path, ideal,
                t_start, end, FLOW_STATES[int(state)], own,
            )
        return out

    def to_dict(self) -> Dict[str, object]:
        return {
            "attempt": self.number,
            "start": self.t_start,
            "flows": [f.to_dict() for f in self.flows.values()],
        }


class CausalTrace:
    """The causal tree of one issued collective."""

    __slots__ = ("trace_id", "tenant", "comm_id", "seq", "kind", "nbytes",
                 "strategy_version", "issued_at", "end_time", "status",
                 "attempts", "_events")

    def __init__(
        self,
        tracer: "CausalTracer",
        trace_id: str,
        tenant: str,
        comm_id: str,
        seq: int,
        kind: str,
        nbytes: int,
        strategy_version: int,
        now: float,
    ) -> None:
        self.trace_id = trace_id
        self.tenant = tenant
        self.comm_id = comm_id
        self.seq = seq
        self.kind = kind
        self.nbytes = nbytes
        self.strategy_version = strategy_version
        self.issued_at = now
        self.end_time: Optional[float] = None
        self.status = "open"
        self.attempts: List[TraceAttempt] = [TraceAttempt(1, now, tracer)]
        # One ``(now, kind, keys, *values)`` tuple per annotation; the
        # tracer shares each distinct ``keys`` tuple among its traces.
        self._events: List[tuple] = []

    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self.status != "open"

    def new_attempt(self, now: float) -> TraceAttempt:
        """Open the next launch attempt (failure recovery's retry)."""
        attempt = TraceAttempt(len(self.attempts) + 1, now, self.attempts[0].tracer)
        self.annotate(now, EVENT_RETRY, attempt=attempt.number)
        self.attempts.append(attempt)
        return attempt

    def annotate(self, now: float, kind: str, **attrs: object) -> None:
        """Attach a control-plane event (live or closed trace alike)."""
        keys = tuple(attrs)
        keys = self.attempts[0].tracer._event_keys.setdefault(keys, keys)
        self._events.append((now, kind, keys, *attrs.values()))

    @property
    def events(self) -> List[Tuple[float, str, Dict[str, object]]]:
        """Annotations from the control plane — barrier passes, holds,
        relaunches, recovery decisions... — as ``(now, kind, attrs)``,
        in order (a view: the dicts are built on each read)."""
        return [(event[0], event[1], dict(zip(event[2], event[3:])))
                for event in self._events]

    def all_flows(self) -> List[FlowRecord]:
        return [f for a in self.attempts for f in a.flows.values()]

    def identity(self) -> Dict[str, object]:
        """Which collective this is: the leading keys of every export."""
        return {
            "trace_id": self.trace_id,
            "tenant": self.tenant,
            "comm": self.comm_id,
            "seq": self.seq,
            "kind": self.kind,
            "nbytes": self.nbytes,
            "strategy_version": self.strategy_version,
        }

    def to_dict(self) -> Dict[str, object]:
        return {
            **self.identity(),
            "issued_at": self.issued_at,
            "end": self.end_time,
            "status": self.status,
            "attempts": [a.to_dict() for a in self.attempts],
            "events": [
                {"time": t, "kind": kind, "attrs": attrs}
                for t, kind, attrs in self.events
            ],
        }


@dataclass
class CriticalPathReport:
    """Exact-sum attribution of one finished collective.

    ``queue_s + serialization_s + contention_s == duration_s`` holds by
    construction: the critical flow is the last-finishing flow of the
    final attempt, and a collective completes at its last flow's end.
    """

    trace: CausalTrace
    duration_s: float
    #: Time before the critical flow entered the network — shim/frontend
    #: queueing, proxy launch latency, reconfig holds, and (for retried
    #: collectives) the failed earlier attempts and backoff.
    queue_s: float
    #: Ideal transfer time of the critical flow with its path to itself.
    serialization_s: float
    #: Extra network time from sharing links with other traffic.
    contention_s: float
    attempts: int
    critical_flow: str
    critical_rank: Optional[int]
    #: Seconds the critical flow spent bottlenecked on each link.
    per_hop: Dict[str, float]
    #: The link the critical flow was bottlenecked on longest.
    bottleneck_link: Optional[str]
    #: Co-tenant -> seconds of bottlenecked time shared on the critical
    #: flow's bottleneck links (the interference ledger).
    interference: Dict[str, float]

    @property
    def interferer(self) -> Optional[str]:
        """The co-tenant charged with the most shared bottleneck time."""
        if not self.interference:
            return None
        return max(sorted(self.interference), key=self.interference.get)

    def to_dict(self) -> Dict[str, object]:
        return {
            **self.trace.identity(),
            "duration_s": self.duration_s,
            "queue_s": self.queue_s,
            "serialization_s": self.serialization_s,
            "contention_s": self.contention_s,
            "attempts": self.attempts,
            "critical_flow": self.critical_flow,
            "critical_rank": self.critical_rank,
            "per_hop": dict(sorted(self.per_hop.items())),
            "bottleneck_link": self.bottleneck_link,
            "interference": dict(sorted(self.interference.items())),
            "interferer": self.interferer,
        }


class CausalTracer(SimObserver):
    """Assembles causal traces from control-plane calls and flow events.

    Flows tagged ``trace=<CausalTrace>`` are adopted into the trace while
    it is open: a launch batch appends its rows to its attempt's columns,
    and each adopted flow maps to its attempt and row until it leaves the
    network.  A rate hand-off appends one segment row per moved traced
    flow, its co-tenants being the other tenants of the active (ungated)
    slots on its bottleneck link in the solver's incidence; the scan is
    skipped while one tenant has every flow in the network.  Each attempt
    keeps its distinct co-tenant sets once, so what a closed trace holds
    leaves with it.
    """

    def __init__(self, sim: FlowSimulator) -> None:
        self.sim = sim
        self._solver = sim._solver
        self._live: Dict[str, CausalTrace] = {}
        self._closed: RingBuffer[CausalTrace] = RingBuffer(MAX_CLOSED)
        #: The engine's bottleneck link indices name these links.
        self._link_ids = self._solver._link_ids
        self._on_link = np.zeros(len(self._link_ids), bool)  # scan scratch
        #: Each adopted flow still in the network -> (its attempt, its row).
        self._owners: Dict[Flow, Tuple[TraceAttempt, int]] = {}
        #: Tenant -> flows in the network (all traffic, traced or not).
        self._tenant_flows: Dict[str, int] = {}
        self._ids = itertools.count(1)
        #: The distinct attribute-name tuples of trace annotations.
        self._event_keys: Dict[Tuple[str, ...], Tuple[str, ...]] = {}
        self.traces_started = 0
        self.traces_closed = 0
        sim.add_observer(self)

    # ------------------------------------------------------------------
    # trace lifecycle (called by the control plane)
    # ------------------------------------------------------------------
    def open(
        self,
        now: float,
        *,
        tenant: str,
        comm_id: str,
        seq: int,
        kind: str,
        nbytes: int,
        strategy_version: int = 0,
    ) -> CausalTrace:
        """Start the trace of one issued collective; the caller owns it."""
        trace_id = f"tr{next(self._ids)}:{comm_id}.s{seq}"
        trace = self._live[trace_id] = CausalTrace(
            self, trace_id, tenant, comm_id, seq, kind, nbytes, strategy_version, now
        )
        self.traces_started += 1
        return trace

    def close(
        self, trace: CausalTrace, now: float, status: str, **attrs: object
    ) -> None:
        """Terminate a trace exactly once; later calls are no-ops.
        ``attrs`` become one final annotation named after ``status``."""
        if self._live.pop(trace.trace_id, None) is None:
            return
        if attrs:
            trace.annotate(now, status, **attrs)
        trace.end_time = now
        trace.status = status
        self._closed.append(trace)
        self.traces_closed += 1

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def live_traces(self) -> List[CausalTrace]:
        return list(self._live.values())

    def closed_traces(self) -> List[CausalTrace]:
        """The retained closed trees, oldest first (a :data:`MAX_CLOSED` ring)."""
        return self._closed.to_list()

    @property
    def evicted(self) -> int:
        """Closed trees the ring has dropped."""
        return self._closed.evicted

    def recent(self, n: int = 8) -> List[CausalTrace]:
        """Most recent traces, live first then newest-closed."""
        closed = self._closed.to_list()
        out = list(self._live.values()) + closed[::-1]
        return out[:n]

    # ------------------------------------------------------------------
    # SimObserver interface
    # ------------------------------------------------------------------
    def on_flows_added(self, flows: Sequence[Flow], now: float) -> None:
        """Adopt one launch batch (shared ``job_id`` and ``tags``)."""
        first = flows[0]
        job = first.job_id or "none"
        self._tenant_flows[job] = self._tenant_flows.get(job, 0) + len(flows)
        trace = first.tags.get("trace")
        if trace is None or trace.closed:
            return
        attempt = trace.attempts[-1]
        owners, caps = self._owners, self.sim._capacities
        number = int(first.flow_id[4:])  # a batch's flows are numbered densely
        i = len(attempt.paths)
        # The path's narrowest link, once per distinct route.
        floors: Dict[Tuple[str, ...], float] = {}
        rows: List[float] = []
        for flow in flows:
            floor = floors.get(flow.links)
            if floor is None:
                floor = floors[flow.links] = min(map(caps.__getitem__, flow.links))
            rank, channel, size = flow.rank, flow.channel, flow.size
            rows += (number, now, _NAN if rank is None else rank,
                     _NAN if channel is None else channel, size, size / floor, 0.0, _ACTIVE)
            owners[flow] = (attempt, i)
            number += 1
            i += 1
        attempt.flow_rows.fromlist(rows)
        attempt.paths += map(attrgetter("path"), flows)

    def on_rates_changed(self, slots: np.ndarray, rates: np.ndarray,
                         bottleneck_link_idx: np.ndarray, now: float) -> None:
        """One recomputation's moves: a segment row per moved traced flow,
        a run of one attempt's rows appended at once."""
        owners = self._owners
        if not owners:  # no traced flow in the network
            return
        solver, table = self._solver, self._solver._slots
        slots, links = slots.tolist(), bottleneck_link_idx.tolist()
        if -1 in links:
            # The solver has not attributed a flow it has not rated (e.g.
            # gated): its path's narrowest link stands in.
            caps = self.sim._capacities
            links = [solver._link_index[min(table[slot].links, key=caps.__getitem__)]
                     if link < 0 else link for slot, link in zip(slots, links)]
        # Tenants on the bottleneck links, unless one tenant has every flow.
        tenants = self._tenants_on(set(links)) if len(self._tenant_flows) > 1 else None
        co_sets: Dict[Tuple[int, str], Tuple[str, ...]] = {}
        run: Optional[TraceAttempt] = None
        rows: List[float] = []
        for slot, rate, link in zip(slots, rates.tolist(), links):
            flow = table[slot]
            owner = owners.get(flow)
            if owner is None:
                continue
            attempt, i = owner
            co_id = 0
            if tenants is not None:
                own = flow.job_id or "none"
                co = co_sets.get((link, own))
                if co is None:
                    co = co_sets[link, own] = tuple(sorted(tenants[link] - {own}))
                if co not in attempt.co_sets:
                    attempt.co_sets.append(co)
                co_id = attempt.co_sets.index(co)
            if attempt is not run:
                if run is not None:
                    run.segment_rows.fromlist(rows)
                run, rows = attempt, []
            rows += (i, now, rate, link, co_id)
        if run is not None:
            run.segment_rows.fromlist(rows)

    def _tenants_on(self, links: Set[int]) -> Dict[int, Set[str]]:
        """The tenants of the active slots on each of ``links``: one scan of
        the solver's incidence."""
        solver, on_link = self._solver, self._on_link
        flat_links = solver._flat_links[: solver._nnz]
        keys = list(links)
        on_link[keys] = True
        hit = on_link[flat_links]
        on_link[keys] = False
        hit_slots = solver._flat_slots[: solver._nnz][hit]
        live = solver._active[hit_slots]
        table = solver._slots
        tenants: Dict[int, Set[str]] = {link: set() for link in keys}
        for link, slot in zip(flat_links[hit][live].tolist(), hit_slots[live].tolist()):
            tenants[link].add(table[slot].job_id or "none")
        return tenants

    def _flows_left(self, flows: Sequence[Flow], now: float, state: int) -> None:
        """Record the end of every traced flow in ``flows`` and take them
        all off the per-tenant flow counts."""
        owners, counts = self._owners, self._tenant_flows
        for flow in flows:
            job = flow.job_id or "none"
            left = counts.get(job, 0) - 1
            if left > 0:
                counts[job] = left
            else:
                counts.pop(job, None)
            owner = owners.pop(flow, None)
            if owner is not None:
                attempt, i = owner
                attempt.flow_rows[i * _FLOW_ROW + 6] = now
                attempt.flow_rows[i * _FLOW_ROW + 7] = state

    def on_flows_completed(self, flows: Sequence[Flow], now: float) -> None:
        self._flows_left(flows, now, _COMPLETED)

    def on_flow_cancelled(self, flow: Flow, now: float) -> None:
        self._flows_left((flow,), now, _CANCELLED)

    def on_flow_failed(self, flow: Flow, now: float) -> None:
        self._flows_left((flow,), now, _FAILED)

    # ------------------------------------------------------------------
    # critical-path attribution
    # ------------------------------------------------------------------
    def critical_path(self, trace: CausalTrace) -> Optional[CriticalPathReport]:
        """Build the exact-sum attribution report for a finished trace."""
        if trace.end_time is None:
            return None
        final = trace.attempts[-1]
        done = [f for f in final.flows.values()
                if f.status == "completed" and f.t_end is not None]
        if not done:
            return None
        critical = max(done, key=lambda f: (f.t_end, f.flow_id))
        duration = trace.end_time - trace.issued_at
        queue_s = critical.t_start - trace.issued_at
        fct = critical.t_end - critical.t_start
        serialization_s = min(critical.ideal_s, fct)
        contention_s = (trace.end_time - critical.t_start) - serialization_s
        per_hop = critical.bottlenecked_seconds()
        if per_hop:
            bottleneck = max(sorted(per_hop), key=per_hop.get)
        else:
            bottleneck = min(critical.path, key=self.sim.link_capacity)
        return CriticalPathReport(
            trace=trace,
            duration_s=duration,
            queue_s=queue_s,
            serialization_s=serialization_s,
            contention_s=contention_s,
            attempts=len(trace.attempts),
            critical_flow=critical.flow_id,
            critical_rank=critical.rank,
            per_hop=per_hop,
            bottleneck_link=bottleneck,
            interference=critical.interference_seconds(),
        )


class FlightRecorder:
    """Always-on bounded ring of recent causal trees with trigger dumps.

    The recorder itself costs nothing at steady state: the tracer already
    keeps the ring of recent traces.  On a trigger (deadline, heartbeat
    miss, crash, admission shed, or a manual one) it snapshots the
    :data:`SNAPSHOT_TRACES` most recent trees into a JSON-ready dump and
    keeps the most recent :data:`MAX_DUMPS`.
    """

    def __init__(
        self, tracer: CausalTracer, metrics: "MetricsRegistry", events: "EventLog"
    ) -> None:
        self.tracer = tracer
        self.events = events
        self._dumps: RingBuffer[Dict[str, object]] = RingBuffer(MAX_DUMPS)
        self._dumps_total = metrics.counter(
            "mccs_flight_dumps_total",
            "Flight-recorder dumps taken, by trigger reason.",
        )

    def trigger(
        self,
        reason: str,
        now: float,
        *,
        trace: Optional[CausalTrace] = None,
        **detail: object,
    ) -> Dict[str, object]:
        """Snapshot the recent causal trees (``trace``, the collective the
        trigger is about, always among them); returns the dump."""
        traces = self.tracer.recent(SNAPSHOT_TRACES)
        trace_id = None
        if trace is not None:
            trace_id = trace.trace_id
            if trace not in traces:
                traces = [trace] + traces[: SNAPSHOT_TRACES - 1]
        dump = {
            "reason": reason,
            "time": now,
            "trace_id": trace_id,
            "detail": dict(detail),
            "traces": [t.to_dict() for t in traces],
        }
        self._dumps.append(dump)
        self._dumps_total.inc(reason=reason)
        self.events.log(
            now, "flight_dump",
            f"flight recorder dump ({reason})",
            reason=reason, **({"trace": trace_id} if trace_id else {}),
        )
        return dump

    # ------------------------------------------------------------------
    def dumps(self) -> List[Dict[str, object]]:
        return self._dumps.to_list()

    def to_dict(self) -> Dict[str, object]:
        return {"dumps": self.dumps(), "evicted": self._dumps.evicted}
