"""Observability for the MCCS reproduction.

The paper's managed service argument (§4.3, §7) rests on the provider
*seeing* what tenant applications cannot: link utilization, per-tenant
traffic, reconfiguration cost.  This package is that provider-side
telemetry plane for the reproduction:

* :mod:`metrics`   — Prometheus-style counters/gauges/histograms on the
  simulated clock.
* :mod:`causal`    — the one record per collective: its causal tree,
  critical-path attribution, the flight recorder.
* :mod:`spans`     — the timeline vocabulary: reconfiguration spans, and
  collective spans rendered from the causal trees at export time.
* :mod:`sampler`   — flow-lifecycle observer + periodic link-utilization
  sampling over the fluid simulator.
* :mod:`events`    — bounded log of control-plane policy decisions.
* :mod:`exporters` — Prometheus text, JSON, and Chrome trace-event
  renderings.
* :mod:`reporter`  — pluggable text output used by the experiment mains.
* :mod:`hub`       — :class:`TelemetryHub`, the per-deployment aggregate
  that ``MccsDeployment.telemetry()`` returns.
"""

from .causal import (
    EVENT_ABORTED,
    EVENT_BARRIER_RESOLVED,
    EVENT_FIRST_FLOW_START,
    EVENT_HELD,
    EVENT_LAST_FLOW_END,
    EVENT_RANK_APPLIED,
    EVENT_RANK_FAILED,
    EVENT_RANK_LAUNCH,
    EVENT_RETRY,
)
from .events import EventLog, TelemetryEvent
from .exporters import chrome_trace, json_snapshot, prometheus_text
from .hub import TelemetryHub
from .metrics import (
    DEFAULT_SIM_BUCKETS,
    WALL_CLOCK_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .reporter import (
    BufferSink,
    Reporter,
    StdoutSink,
    StreamSink,
    format_table,
    get_default_reporter,
    set_default_reporter,
)
from .ringbuffer import RingBuffer
from .sampler import NetworkTelemetry
from .spans import Span, SpanRecorder, collective_spans

__all__ = [
    "BufferSink",
    "Counter",
    "DEFAULT_SIM_BUCKETS",
    "EVENT_ABORTED",
    "EVENT_BARRIER_RESOLVED",
    "EVENT_FIRST_FLOW_START",
    "EVENT_HELD",
    "EVENT_LAST_FLOW_END",
    "EVENT_RANK_APPLIED",
    "EVENT_RANK_FAILED",
    "EVENT_RANK_LAUNCH",
    "EVENT_RETRY",
    "EventLog",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NetworkTelemetry",
    "Reporter",
    "RingBuffer",
    "Span",
    "SpanRecorder",
    "StdoutSink",
    "StreamSink",
    "TelemetryEvent",
    "TelemetryHub",
    "WALL_CLOCK_BUCKETS",
    "chrome_trace",
    "collective_spans",
    "format_table",
    "get_default_reporter",
    "json_snapshot",
    "prometheus_text",
    "set_default_reporter",
]
