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
  kind, bytes, strategy version); journal records, decision events and
  flow tags reference its ``trace_id``.
* :class:`CausalTracer` — a :class:`~repro.netsim.engine.SimObserver`
  that keeps the live trees and a bounded ring of closed ones.  Flows
  tagged with ``trace=<trace_id>`` are adopted into the issuing trace;
  a per-flow rate recorder (installed via ``Flow._recorder``) captures
  every rate change as a closed *segment* ``(start, end, rate,
  bottleneck_link, co_tenants)``, so attribution costs O(changed flows)
  per recomputation — the same complexity as the engine itself.
* :class:`CriticalPathReport` — the exact-sum decomposition of one
  finished collective: ``queue + serialization + contention`` equals the
  measured duration by construction, per-hop time is grouped by the
  solver's per-round bottleneck attribution, and the co-tenant ledger
  quantifies who interfered for how long.
* :class:`FlightRecorder` — an always-on bounded ring of recent causal
  trees that snapshots itself on trigger events (deadline, heartbeat
  miss, crash, admission shed, SLO violation) so every chaos failure
  ships its own evidence.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from .ringbuffer import RingBuffer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..netsim.engine import FlowSimulator
    from ..netsim.flows import Flow
    from .events import EventLog
    from .metrics import BoundCounter, MetricsRegistry

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


@dataclass(slots=True)
class RateSegment:
    """One constant-rate interval of a traced flow."""

    start: float
    end: Optional[float]
    rate: float
    bottleneck: Optional[str]
    #: Tenants (other than the flow's own) with active flows on the
    #: bottleneck link when the segment opened.  Rate recomputations
    #: bracket membership changes on the flow's links, so the set is
    #: constant over the segment.
    co_tenants: Tuple[str, ...] = ()

    def duration(self) -> float:
        return (self.end - self.start) if self.end is not None else 0.0

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
    """One netsim flow's life inside a causal trace."""

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
    status: str = "active"  # active | completed | cancelled | failed
    segments: List[RateSegment] = field(default_factory=list)

    def close_segment(self, now: float) -> None:
        if self.segments and self.segments[-1].end is None:
            self.segments[-1].end = now

    def bottlenecked_seconds(self) -> Dict[str, float]:
        """Seconds spent bottlenecked on each link, from the segments."""
        per_link: Dict[str, float] = {}
        for seg in self.segments:
            if seg.bottleneck is None or seg.end is None:
                continue
            per_link[seg.bottleneck] = (
                per_link.get(seg.bottleneck, 0.0) + seg.duration()
            )
        return per_link

    def interference_seconds(self) -> Dict[str, float]:
        """Seconds of bottlenecked time shared with each co-tenant."""
        ledger: Dict[str, float] = {}
        for seg in self.segments:
            if seg.end is None:
                continue
            dt = seg.duration()
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


@dataclass
class TraceAttempt:
    """One launch attempt of a collective (retries open new attempts)."""

    number: int
    t_start: float
    flows: Dict[str, FlowRecord] = field(default_factory=dict)

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
                 "attempts", "events")

    def __init__(
        self,
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
        self.attempts: List[TraceAttempt] = [TraceAttempt(1, now)]
        #: Annotations from the control plane: journal appends, barrier
        #: passes, holds, relaunches, recovery decisions...
        self.events: List[Tuple[float, str, Dict[str, object]]] = []

    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self.status != "open"

    @property
    def current_attempt(self) -> TraceAttempt:
        return self.attempts[-1]

    def new_attempt(self, now: float) -> TraceAttempt:
        """Open the next launch attempt (failure recovery's retry)."""
        attempt = TraceAttempt(len(self.attempts) + 1, now)
        self.annotate(now, EVENT_RETRY, attempt=attempt.number)
        self.attempts.append(attempt)
        return attempt

    def annotate(self, now: float, kind: str, **attrs: object) -> None:
        """Attach a control-plane event (live or closed trace alike)."""
        self.events.append((now, kind, attrs))

    def all_flows(self) -> List[FlowRecord]:
        return [f for a in self.attempts for f in a.flows.values()]

    def find_flow(self, flow_id: str) -> Optional[FlowRecord]:
        for attempt in reversed(self.attempts):
            rec = attempt.flows.get(flow_id)
            if rec is not None:
                return rec
        return None

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


class _BoundRecorder:
    """Per-flow rate recorder with trace state resolved at adoption.

    Installed as ``Flow._recorder`` so the engine's per-rate-change hook
    reaches the right :class:`FlowRecord` without any dictionary lookups
    — the binding is the tracer's hot path.
    """

    __slots__ = ("tracer", "rec", "job")

    def __init__(self, tracer: "CausalTracer", rec: FlowRecord, job: str) -> None:
        self.tracer = tracer
        self.rec = rec
        self.job = job

    def on_rate_change(
        self,
        flow: "Flow",
        now: float,
        rate: float,
        bottleneck: Optional[str],
    ) -> None:
        """Engine hook: ``flow``'s allocation moved (O(changed flows))."""
        rec = self.rec
        if rec.status != "active":  # trace closed while the flow lived on
            return
        segments = rec.segments
        if segments and segments[-1].end is None:
            segments[-1].end = now
        if bottleneck is None and flow.links:
            # The solver has no per-round attribution for a flow it has
            # not rated yet (e.g. injected gated); fall back to the
            # static minimum-capacity link of the path.
            bottleneck = min(flow.links, key=self.tracer.sim.link_capacity)
        co: Tuple[str, ...] = ()
        if bottleneck is not None:
            per_job = self.tracer._link_jobs.get(bottleneck)
            # Fast path: the flow's own tenant is alone on the link.
            if per_job and not (len(per_job) == 1 and self.job in per_job):
                co = tuple(sorted(
                    t for t, n in per_job.items() if n > 0 and t != self.job
                ))
        segments.append(
            RateSegment(start=now, end=None, rate=rate, bottleneck=bottleneck,
                        co_tenants=co)
        )


class CausalTracer:
    """Assembles causal traces from control-plane calls and flow events.

    The tracer observes *every* flow to maintain per-link tenant
    occupancy (the co-tenant sets are computed from it) but only flows
    tagged ``trace=<trace_id>`` get full segment recording — untraced
    traffic costs two O(path) dictionary passes per flow lifetime.
    """

    def __init__(
        self,
        sim: "FlowSimulator",
        *,
        max_closed: int = 512,
        events: Optional["EventLog"] = None,
        metrics: Optional["MetricsRegistry"] = None,
    ) -> None:
        self.sim = sim
        self.events = events
        self._live: Dict[str, CausalTrace] = {}
        self._closed: RingBuffer[CausalTrace] = RingBuffer(max_closed)
        #: link -> tenant -> active flow count (all traffic, traced or not).
        self._link_jobs: Dict[str, Dict[str, int]] = {}
        self._ids = itertools.count(1)
        self.traces_started = 0
        self.traces_closed = 0
        self._traces_total = self._traces_open = None
        if metrics is not None:
            self._traces_total = metrics.counter(
                "mccs_traces_total",
                "Causal traces opened, one per issued collective.",
            )
            self._traces_open = metrics.gauge(
                "mccs_traces_open",
                "Causal traces currently open (issued, not yet terminal).",
            ).labels()
            self._traces_by_tenant: Dict[str, "BoundCounter"] = {}
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
            trace_id, tenant, comm_id, seq, kind, nbytes, strategy_version, now
        )
        self.traces_started += 1
        if self._traces_total is not None:
            opened = self._traces_by_tenant.get(tenant)
            if opened is None:
                opened = self._traces_by_tenant[tenant] = (
                    self._traces_total.labels(tenant=tenant)
                )
            opened.inc()
            self._traces_open.set(len(self._live))
        return trace

    def close(
        self, trace: CausalTrace, now: float, status: str, **attrs: object
    ) -> None:
        """Terminate a trace exactly once; later calls are no-ops.
        ``attrs`` become one final annotation named after ``status``."""
        if self._live.pop(trace.trace_id, None) is None:
            return
        for rec in trace.all_flows():
            if rec.status == "active":  # flow outlived by its collective
                rec.close_segment(now)
                rec.t_end = rec.t_end if rec.t_end is not None else now
                rec.status = "cancelled"
        if attrs:
            trace.annotate(now, status, **attrs)
        trace.end_time = now
        trace.status = status
        self._closed.append(trace)
        self.traces_closed += 1
        if self._traces_open is not None:
            self._traces_open.set(len(self._live))

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def live_traces(self) -> List[CausalTrace]:
        return list(self._live.values())

    def closed_traces(self) -> List[CausalTrace]:
        """The retained closed trees, oldest first (a ``max_closed`` ring)."""
        return self._closed.to_list()

    def recent(self, n: int = 8) -> List[CausalTrace]:
        """Most recent traces, live first then newest-closed."""
        closed = self._closed.to_list()
        out = list(self._live.values()) + closed[::-1]
        return out[:n]

    # ------------------------------------------------------------------
    # SimObserver interface + rate recorder
    # ------------------------------------------------------------------
    def on_flows_added(self, flows: Sequence["Flow"], now: float) -> None:
        """Adopt one launch batch (shared ``job_id`` and ``tags``)."""
        first = flows[0]
        job = first.job_id or "none"
        link_jobs = self._link_jobs
        for flow in flows:
            for link in flow.links:
                per_job = link_jobs.get(link)
                if per_job is None:
                    per_job = link_jobs[link] = {}
                per_job[job] = per_job.get(job, 0) + 1
        tags = first.tags
        trace = self._live.get(tags.get("trace"))
        if trace is None:
            return
        rank = tags.get("rank")
        records = trace.current_attempt.flows
        capacity = self.sim.link_capacity
        for flow in flows:
            rec = records[flow.flow_id] = FlowRecord(
                flow.flow_id, rank, flow.channel, flow.size, flow.path,
                flow.size / min(map(capacity, flow.links)), now,
            )
            flow._recorder = _BoundRecorder(self, rec, job)

    def _flow_left(self, flow: "Flow", now: float, status: str) -> None:
        job = flow.job_id or "none"
        link_jobs = self._link_jobs
        for link in flow.links:
            per_job = link_jobs.get(link)
            if per_job is not None:
                count = per_job.get(job, 0) - 1
                if count > 0:
                    per_job[job] = count
                else:
                    per_job.pop(job, None)
                    if not per_job:
                        del link_jobs[link]
        binding = flow._recorder
        if binding is None:
            return
        rec = binding.rec
        if rec.status != "active":  # the trace already closed it
            return
        rec.close_segment(now)
        rec.t_end = now
        rec.status = status

    def on_flows_completed(self, flows: Sequence["Flow"], now: float) -> None:
        for flow in flows:
            self._flow_left(flow, now, "completed")

    def on_flow_cancelled(self, flow: "Flow", now: float) -> None:
        self._flow_left(flow, now, "cancelled")

    def on_flow_failed(self, flow: "Flow", now: float) -> None:
        self._flow_left(flow, now, "failed")

    def on_flow_gated(self, flow: "Flow", gated: bool, now: float) -> None:
        pass

    def on_rates_recomputed(self, now: float) -> None:
        pass

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
    miss, crash, admission shed, SLO violation) it snapshots the recent
    trees into a JSON-ready dump and keeps the most recent ``max_dumps``.
    """

    TRIGGERS = (
        "deadline", "heartbeat_miss", "crash", "admission_shed",
        "slo_violation", "manual",
    )

    def __init__(
        self,
        tracer: CausalTracer,
        *,
        max_dumps: int = 16,
        snapshot_traces: int = 8,
        events: Optional["EventLog"] = None,
        metrics: Optional["MetricsRegistry"] = None,
    ) -> None:
        self.tracer = tracer
        self.snapshot_traces = snapshot_traces
        self.events = events
        self._dumps: RingBuffer[Dict[str, object]] = RingBuffer(max_dumps)
        self._dumps_total = None
        if metrics is not None:
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
        traces = self.tracer.recent(self.snapshot_traces)
        trace_id = None
        if trace is not None:
            trace_id = trace.trace_id
            if trace not in traces:
                traces = [trace] + traces[: self.snapshot_traces - 1]
        dump = {
            "reason": reason,
            "time": now,
            "trace_id": trace_id,
            "detail": dict(detail),
            "traces": [t.to_dict() for t in traces],
        }
        self._dumps.append(dump)
        if self._dumps_total is not None:
            self._dumps_total.inc(reason=reason)
        if self.events is not None:
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

    def write_json(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
