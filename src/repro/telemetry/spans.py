"""Spans: the export vocabulary of lifecycle timelines.

A :class:`Span` is one named interval on the simulation clock, optionally
nested under a parent span and carrying point events ("rank_launch",
"first_flow_start", ...).  Two producers, one shape:

* **Collectives are not stored as spans.**  The one record of a
  collective is its causal tree (:mod:`repro.telemetry.causal`);
  :func:`collective_spans` *renders* the timeline below from the retained
  trees when an exporter (or a test) asks:

      allreduce c0.s3                    [issue ............. last flow end]
        queued                           [issue .. first proxy launch]
        launch                                    [launch .. first flow]
        network                                            [flows draining]

  The phases tile the root.  A retried collective re-enters ``queued`` at
  each retry, so every attempt shows its own closed ``network`` child.
  Every annotation of the tree is an instant on the root.
* **Reconfigurations are begun explicitly** on the hub's
  :class:`SpanRecorder` — a root span with a ``barrier`` child, so the
  Figure 4 stall is directly visible in a Chrome trace.  They are the only
  spans the recorder stores.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Tuple

from .causal import (
    EVENT_FIRST_FLOW_START,
    EVENT_LAST_FLOW_END,
    EVENT_RANK_LAUNCH,
    EVENT_RETRY,
    TRACE_COMPLETED,
)
from .ringbuffer import RingBuffer

#: Capacity of a hub's stored-span ring (``hub.spans``).
MAX_SPANS = 8192

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .causal import CausalTrace


class Span:
    """One interval on the simulated clock."""

    __slots__ = ("span_id", "name", "category", "start", "end", "parent_id",
                 "attrs", "events")

    def __init__(
        self,
        span_id: int,
        name: str,
        start: float,
        *,
        category: str = "span",
        parent_id: Optional[int] = None,
        attrs: Optional[Dict[str, object]] = None,
    ) -> None:
        self.span_id = span_id
        self.name = name
        self.category = category
        self.start = start
        self.end: Optional[float] = None
        self.parent_id = parent_id
        self.attrs: Dict[str, object] = dict(attrs or {})
        self.events: List[Tuple[str, float, Dict[str, object]]] = []

    # ------------------------------------------------------------------
    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> Optional[float]:
        if self.end is None:
            return None
        return self.end - self.start

    def finish(self, t: float) -> "Span":
        if self.end is not None:
            raise ValueError(f"span {self.name!r} finished twice")
        if t < self.start:
            raise ValueError(f"span {self.name!r} cannot end before it starts")
        self.end = t
        return self

    def mark(self, name: str, t: float, **attrs: object) -> None:
        """Stamp a point event on the span."""
        self.events.append((name, t, dict(attrs)))

    def event_time(self, name: str) -> Optional[float]:
        """Time of the first event called ``name``, or None."""
        for event_name, t, _ in self.events:
            if event_name == name:
                return t
        return None

    def event_times(self, name: str) -> List[float]:
        return [t for event_name, t, _ in self.events if event_name == name]

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


class SpanRecorder:
    """Bounded store of every span recorded by one telemetry hub.

    Span ids are assigned from a per-recorder counter, so exports are
    deterministic run to run.  The buffer keeps the most recent
    ``max_spans`` spans; the eviction count is reported by exporters.
    """

    def __init__(self, max_spans: int = MAX_SPANS) -> None:
        self._spans: RingBuffer[Span] = RingBuffer(max_spans)

    @property
    def next_id(self) -> int:
        """Id of the next span begun (ids run 1, 2, ... in begin order)."""
        return len(self._spans) + self._spans.evicted + 1

    def begin(
        self,
        name: str,
        t: float,
        *,
        category: str = "span",
        parent: Optional[Span] = None,
        **attrs: object,
    ) -> Span:
        span = Span(
            self.next_id,
            name,
            t,
            category=category,
            parent_id=parent.span_id if parent is not None else None,
            attrs=attrs,
        )
        self._spans.append(span)
        return span

    # ------------------------------------------------------------------
    def spans(self, category: Optional[str] = None) -> List[Span]:
        if category is None:
            return self._spans.to_list()
        return [s for s in self._spans if s.category == category]

    def children_of(self, span: Span) -> List[Span]:
        return [s for s in self._spans if s.parent_id == span.span_id]

    def find(self, **attrs: object) -> List[Span]:
        """Spans whose attrs contain every given key/value pair."""
        return [
            s
            for s in self._spans
            if all(s.attrs.get(k) == v for k, v in attrs.items())
        ]

    @property
    def evicted(self) -> int:
        return self._spans.evicted

    def __len__(self) -> int:
        return len(self._spans)

    def __iter__(self) -> Iterator[Span]:
        return iter(self._spans)


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
        root = Span(
            first_id + len(out),
            f"{trace.kind} {trace.comm_id}.s{trace.seq}",
            trace.issued_at,
            category="collective",
            attrs=dict(tracks, seq=trace.seq, kind=trace.kind,
                       bytes=trace.nbytes, trace=trace.trace_id),
        )
        root.events = [(kind, t, attrs) for t, kind, attrs in trace.events]
        if trace.status == TRACE_COMPLETED:
            root.mark(EVENT_LAST_FLOW_END, trace.end_time)
        root.end = trace.end_time
        out.append(root)

        # Phase boundaries, walked off the annotations: (name, start).
        phases = [("queued", trace.issued_at)]
        for t, kind, _ in trace.events:
            current = phases[-1][0]
            if kind == EVENT_RANK_LAUNCH and current == "queued":
                phases.append(("launch", t))
            elif kind == EVENT_FIRST_FLOW_START:
                phases.append(("network", t))
            elif kind == EVENT_RETRY and current != "queued":
                phases.append(("queued", t))
        ends = [t for _, t in phases[1:]] + [trace.end_time]
        for (name, start), end in zip(phases, ends):
            phase = Span(first_id + len(out), name, start, category="phase",
                         parent_id=root.span_id, attrs=tracks)
            phase.end = end
            out.append(phase)
    return out
