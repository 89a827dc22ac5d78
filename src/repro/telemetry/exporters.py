"""Telemetry exporters: Prometheus text, JSON, and Chrome trace-event.

Three views over the same hub state:

* :func:`prometheus_text` — the standard ``# HELP``/``# TYPE`` exposition
  format, so a scrape of the reproduction looks like a scrape of a real
  MCCS service deployment.
* :func:`json_snapshot` — everything (metrics, spans, events, the bytes
  each link carried) as one JSON-ready dict; what
  ``experiments/report.py`` writes when asked for machine-readable output.
* :func:`chrome_trace` — the ``chrome://tracing`` / Perfetto trace-event
  format.  Collective spans become complete ("X") events grouped per app
  and communicator, point events become instants, and the Figure 4
  reconfiguration barrier shows up as its own span on the control track.

The spans both span exports show are ``hub.spans``: reconfiguration spans
rendered from the session ring and collective spans rendered from the
causal trees.  All exporters are deterministic: span ids follow issue
order and output is sorted, so goldens can be compared byte for byte.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from .events import EventLog
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .spans import Span

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..netsim.engine import FlowSimulator
    from .hub import TelemetryHub


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
def _fmt_value(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _fmt_labels(labels: Dict[str, str], extra: Optional[Tuple[str, str]] = None) -> str:
    pairs = sorted(labels.items())
    if extra is not None:
        pairs = pairs + [extra]
    if not pairs:
        return ""
    body = ",".join(f'{k}="{_escape_label(str(v))}"' for k, v in pairs)
    return "{" + body + "}"


def prometheus_text(metrics: MetricsRegistry) -> str:
    """Render a registry in the Prometheus text exposition format."""
    lines: List[str] = []
    for metric in metrics.collect():
        if metric.help:
            lines.append(f"# HELP {metric.name} {metric.help}")
        lines.append(f"# TYPE {metric.name} {metric.kind}")
        if isinstance(metric, (Counter, Gauge)):
            samples = metric.samples() or [({}, 0.0)]
            for labels, value in samples:
                lines.append(
                    f"{metric.name}{_fmt_labels(labels)} {_fmt_value(value)}"
                )
        elif isinstance(metric, Histogram):
            for labels, state in metric.samples():
                for le, cumulative in metric.bucket_counts(**labels):
                    le_str = "+Inf" if math.isinf(le) else _fmt_value(le)
                    lines.append(
                        f"{metric.name}_bucket"
                        f"{_fmt_labels(labels, ('le', le_str))} {cumulative}"
                    )
                lines.append(
                    f"{metric.name}_sum{_fmt_labels(labels)} "
                    f"{_fmt_value(state.sum)}"
                )
                lines.append(
                    f"{metric.name}_count{_fmt_labels(labels)} {state.count}"
                )
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# JSON snapshot
# ----------------------------------------------------------------------
def json_snapshot(hub: "TelemetryHub") -> Dict[str, object]:
    """Everything the hub knows, as one JSON-ready dict."""
    out: Dict[str, object] = {
        "metrics": hub.metrics.snapshot(),
        "spans": {
            "evicted": hub.spans.evicted,
            "records": [span.to_dict() for span in hub.spans],
        },
        "events": {
            "evicted": hub.events.evicted,
            "records": [event.to_dict() for event in hub.events.events()],
        },
        "links": _link_load(hub.sim),
    }
    if hub.flight.dumps():
        out["flight"] = hub.flight.to_dict()
    return out


def _link_load(sim: "FlowSimulator") -> Dict[str, Dict[str, float]]:
    """Per link that carried bytes: the bytes, and their mean share of the
    link's nominal capacity over ``[0, now]``."""
    links, now = sim.topology.links, sim.now
    return {
        link: {"bytes": moved, "utilization": moved / (links[link].capacity * now)}
        for link, moved in sorted(sim.link_bytes().items())
    }


# ----------------------------------------------------------------------
# Chrome trace-event format
# ----------------------------------------------------------------------
def _us(t: float) -> float:
    """Simulated seconds -> trace microseconds, rounded for stable goldens."""
    return round(t * 1e6, 3)


class _TrackAllocator:
    """Deterministic pid/tid assignment with name metadata events."""

    def __init__(self) -> None:
        self._pids: Dict[str, int] = {}
        self._tids: Dict[Tuple[int, str], int] = {}
        self.metadata: List[Dict[str, object]] = []

    def pid(self, process: str) -> int:
        pid = self._pids.get(process)
        if pid is None:
            pid = self._pids[process] = len(self._pids) + 1
            self.metadata.append(
                {
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "name": "process_name",
                    "args": {"name": process},
                }
            )
        return pid

    def tid(self, pid: int, track: str) -> int:
        tid = self._tids.get((pid, track))
        if tid is None:
            tid = self._tids[(pid, track)] = (
                sum(1 for key in self._tids if key[0] == pid) + 1
            )
            self.metadata.append(
                {
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "name": "thread_name",
                    "args": {"name": track},
                }
            )
        return tid


def _span_tracks(span: Span) -> Tuple[str, str]:
    """(process, thread) names for one span's trace placement."""
    process = str(span.attrs.get("app", span.category))
    track = str(span.attrs.get("comm", span.attrs.get("track", span.category)))
    return process, track


def chrome_trace(
    spans: Iterable[Span], events: Optional[EventLog] = None
) -> Dict[str, object]:
    """Render spans — ``hub.spans`` or any sequence of
    :class:`~repro.telemetry.spans.Span` — and decision events as a Chrome
    trace-event dict.

    Finished spans become complete ("X") events; their point events and
    any control-plane decision events become instants ("i").  Unfinished
    spans are skipped — exports are meant to run after the simulation.
    """
    tracks = _TrackAllocator()
    trace_events: List[Dict[str, object]] = []
    #: trace id -> (pid, tid, ts) anchor of the earliest span carrying it;
    #: lifecycle events referencing the same trace id get Chrome flow
    #: arrows ("s"/"f") back to this anchor, so crash/recovery/shed
    #: instants are visually causally bound to their collective.
    anchors: Dict[str, Tuple[int, int, float]] = {}
    flow_points: List[Tuple[str, int, int, float]] = []

    for span in spans:
        process, track = _span_tracks(span)
        pid = tracks.pid(process)
        tid = tracks.tid(pid, track)
        trace_ref = span.attrs.get("trace")
        if trace_ref is not None and str(trace_ref) not in anchors:
            anchors[str(trace_ref)] = (pid, tid, _us(span.start))
        if span.end is not None:
            args: Dict[str, object] = {"span_id": span.span_id}
            if span.parent_id is not None:
                args["parent_id"] = span.parent_id
            args.update(span.attrs)
            trace_events.append(
                {
                    "ph": "X",
                    "pid": pid,
                    "tid": tid,
                    "ts": _us(span.start),
                    "dur": _us(span.end - span.start),  # type: ignore[operator]
                    "name": span.name,
                    "cat": span.category,
                    "args": args,
                }
            )
        for name, t, attrs in span.events:
            trace_events.append(
                {
                    "ph": "i",
                    "pid": pid,
                    "tid": tid,
                    "ts": _us(t),
                    "name": name,
                    "cat": span.category,
                    "s": "t",
                    "args": dict(attrs, span_id=span.span_id),
                }
            )

    if events is not None and len(events):
        pid = tracks.pid("control-plane")
        tid = tracks.tid(pid, "decisions")
        for event in events.events():
            trace_events.append(
                {
                    "ph": "i",
                    "pid": pid,
                    "tid": tid,
                    "ts": _us(event.time),
                    "name": event.kind,
                    "cat": "decision",
                    "s": "p",
                    "args": dict(event.attrs, message=event.message),
                }
            )
            trace_ref = event.attrs.get("trace")
            if trace_ref is not None and str(trace_ref) in anchors:
                flow_points.append(
                    (str(trace_ref), pid, tid, _us(event.time))
                )

    # Flow arrows: one "s" at the collective's root span per referenced
    # trace id, one "f" per lifecycle instant that names it.  Ids are
    # assigned in sorted trace-id order, so output stays deterministic.
    flow_ids = {t: i + 1 for i, t in enumerate(sorted({t for t, *_ in flow_points}))}
    for trace_ref, flow_id in flow_ids.items():
        a_pid, a_tid, a_ts = anchors[trace_ref]
        trace_events.append(
            {
                "ph": "s",
                "pid": a_pid,
                "tid": a_tid,
                "ts": a_ts,
                "id": flow_id,
                "name": "causal",
                "cat": "causal",
                "args": {"trace": trace_ref},
            }
        )
    for trace_ref, pid, tid, ts in flow_points:
        trace_events.append(
            {
                "ph": "f",
                "bp": "e",
                "pid": pid,
                "tid": tid,
                "ts": ts,
                "id": flow_ids[trace_ref],
                "name": "causal",
                "cat": "causal",
                "args": {"trace": trace_ref},
            }
        )

    trace_events.sort(key=lambda e: (e["ts"], e["pid"], e["tid"], e["name"]))
    return {
        "traceEvents": tracks.metadata + trace_events,
        "displayTimeUnit": "ms",
    }
