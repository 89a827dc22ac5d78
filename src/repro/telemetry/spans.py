"""Spans: the export vocabulary of lifecycle timelines.

A :class:`Span` is one named interval on the simulation clock, optionally
nested under a parent span and carrying point events ("rank_launch",
"first_flow_start", ...).  No span is stored: each is *rendered*, when an
exporter (or a test) iterates the hub's :class:`SpanWindow`, from the one
record the service already keeps of the thing it shows.

* **Collectives** render from their causal trees
  (:mod:`repro.telemetry.causal`) — :func:`collective_spans`:

      allreduce c0.s3                    [issue ............. last flow end]
        queued                           [issue .. first proxy launch]
        launch                                    [launch .. first flow]
        network                                            [flows draining]

  The phases tile the root.  A retried collective re-enters ``queued`` at
  each retry, so every attempt shows its own closed ``network`` child.
  Every annotation of the tree is an instant on the root.
* **Reconfigurations** render from their session records
  (:class:`~repro.core.reconfig.ReconfigSession`) — :func:`reconfig_spans`:
  a root span from issue to applied-everywhere (or timeout) with a
  ``barrier`` child from issue to AllGather resolution, so the Figure 4
  stall is directly visible in a Chrome trace.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Tuple

from .causal import (
    EVENT_BARRIER_RESOLVED,
    EVENT_FIRST_FLOW_START,
    EVENT_LAST_FLOW_END,
    EVENT_RANK_APPLIED,
    EVENT_RANK_LAUNCH,
    EVENT_RETRY,
    TRACE_COMPLETED,
)
from .ringbuffer import RingBuffer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .causal import CausalTrace, CausalTracer


class Span:
    """One interval on the simulated clock, as an export shows it
    (``end`` is None while the thing it shows is still running)."""

    __slots__ = ("span_id", "name", "category", "start", "end", "parent_id",
                 "attrs", "events")

    def __init__(
        self,
        span_id: int,
        name: str,
        start: float,
        *,
        end: Optional[float] = None,
        category: str = "span",
        parent_id: Optional[int] = None,
        attrs: Optional[Dict[str, object]] = None,
        events: Optional[List[Tuple[str, float, Dict[str, object]]]] = None,
    ) -> None:
        self.span_id = span_id
        self.name = name
        self.category = category
        self.start = start
        self.end = end
        self.parent_id = parent_id
        self.attrs: Dict[str, object] = dict(attrs or {})
        self.events = events if events is not None else []

    def to_dict(self) -> Dict[str, object]:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "category": self.category,
            "start": self.start,
            "end": self.end,
            "attrs": dict(self.attrs),
            "events": [
                {"name": name, "time": t, "attrs": attrs}
                for name, t, attrs in self.events
            ],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        end = f"{self.end:.6f}" if self.end is not None else "..."
        return f"Span({self.name!r}, [{self.start:.6f}, {end}], id={self.span_id})"


class SpanWindow:
    """What a span export shows (``hub.spans``), rendered on every read.

    Iterating yields the reconfiguration spans of the retained sessions
    (ids from 1, in issue order), then the collective spans of the causal
    trees the tracer retains (closed ring, then live), stably sorted by
    start time.  ``evicted`` counts the sessions and closed collectives
    the two rings have dropped: what the window no longer shows.
    """

    def __init__(self, sessions: RingBuffer, tracer: "CausalTracer") -> None:
        self._sessions = sessions
        self._tracer = tracer

    @property
    def evicted(self) -> int:
        return self._sessions.evicted + self._tracer.evicted

    def __iter__(self) -> Iterator[Span]:
        spans = reconfig_spans(self._sessions)
        traces = self._tracer.closed_traces() + self._tracer.live_traces()
        spans += collective_spans(traces, len(spans) + 1)
        return iter(sorted(spans, key=lambda span: span.start))


def reconfig_spans(sessions: Iterable) -> List[Span]:
    """Render reconfiguration session records as span trees (ids from 1).

    A record (a ``ReconfigSession``; ``telemetry`` does not import
    ``core``) is read for its identity — ``session_id``, ``comm_id``,
    ``app_id``, ``from_version``, ``to_version``, ``barrier_enabled`` —
    and its instants: ``issue_time``, ``resolve_time`` (with ``max_seq``),
    ``applied`` (rank -> time), ``done_time``, ``timeout_time`` (with
    ``missing``).  Per session: the root, issue to applied-everywhere or
    timeout (unfinished while in flight), carrying those instants; then,
    with the barrier enabled, the ``barrier`` child, issue to AllGather
    resolution or timeout.
    """
    out: List[Span] = []
    for s in sessions:
        tracks = {"app": s.app_id, "comm": f"comm{s.comm_id}"}
        events = []
        if s.resolve_time is not None:  # ranks apply only after it
            events.append((EVENT_BARRIER_RESOLVED, s.resolve_time, {"max_seq": s.max_seq}))
        events += [(EVENT_RANK_APPLIED, t, {"rank": rank}) for rank, t in s.applied.items()]
        if s.timeout_time is not None:
            events.append(("barrier_timeout", s.timeout_time, {"missing": s.missing}))
        root = Span(
            len(out) + 1,
            f"reconfig comm{s.comm_id} v{s.from_version}->v{s.to_version}",
            s.issue_time,
            end=s.timeout_time if s.done_time is None else s.done_time,
            category="reconfig",
            attrs=dict(session=s.session_id, barrier_enabled=s.barrier_enabled, **tracks),
            events=events,
        )
        out.append(root)
        if s.barrier_enabled:
            # The Figure 4 stall: command issue to AllGather resolution.
            out.append(Span(
                len(out) + 1, "barrier", s.issue_time,
                end=s.timeout_time if s.resolve_time is None else s.resolve_time,
                category="reconfig", parent_id=root.span_id, attrs=tracks,
            ))
    return out


def collective_spans(
    traces: Iterable["CausalTrace"], first_id: int = 1
) -> List[Span]:
    """Render causal trees as span trees (ids from ``first_id`` up).

    Per trace, in order: the root (issue to terminal state, unfinished
    while the trace is live) carrying every annotation as a point event,
    then its phase children.  This is the only place collective spans are
    built; nothing keeps the result.
    """
    out: List[Span] = []
    for trace in traces:
        tracks = {"app": trace.tenant, "comm": trace.comm_id}
        events = [(kind, t, attrs) for t, kind, attrs in trace.events]
        if trace.status == TRACE_COMPLETED:
            events.append((EVENT_LAST_FLOW_END, trace.end_time, {}))
        root = Span(
            first_id + len(out),
            f"{trace.kind} {trace.comm_id}.s{trace.seq}",
            trace.issued_at,
            end=trace.end_time,
            category="collective",
            attrs=dict(tracks, seq=trace.seq, kind=trace.kind,
                       bytes=trace.nbytes, trace=trace.trace_id),
            events=events,
        )
        out.append(root)

        # Phase boundaries, walked off the annotations: (name, start).
        phases = [("queued", trace.issued_at)]
        for kind, t, _ in events:
            current = phases[-1][0]
            if kind == EVENT_RANK_LAUNCH and current == "queued":
                phases.append(("launch", t))
            elif kind == EVENT_FIRST_FLOW_START:
                phases.append(("network", t))
            elif kind == EVENT_RETRY and current != "queued":
                phases.append(("queued", t))
        ends = [t for _, t in phases[1:]] + [trace.end_time]
        for (name, start), end in zip(phases, ends):
            out.append(Span(first_id + len(out), name, start, end=end, category="phase",
                            parent_id=root.span_id, attrs=tracks))
    return out
