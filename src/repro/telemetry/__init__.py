"""Observability for the MCCS reproduction.

The paper's managed service argument (§4.3, §7) rests on the provider
*seeing* what tenant applications cannot: link utilization, per-tenant
traffic, reconfiguration cost.  This package is that provider-side
telemetry plane for the reproduction:

* :mod:`metrics`   — Prometheus-style counters/gauges/histograms on the
  simulated clock; every latency and shed is counted once, here, and a
  tenant's SLO account is a query over these series (bucket quantiles
  included), not a store of its own.
* :mod:`causal`    — the one record per collective: its causal tree,
  critical-path attribution, the flight recorder.
* :mod:`spans`     — the timeline vocabulary, rendered at export time:
  reconfiguration spans from the session records, collective spans from
  the causal trees.
* :mod:`sampler`   — flow-lifecycle observer over the fluid simulator;
  it schedules nothing.  A link's load is a query of the simulator
  (``FlowSimulator.link_bytes()``), rendered by the JSON export.
* :mod:`events`    — bounded log of control-plane policy decisions.
* :mod:`exporters` — Prometheus text, JSON, and Chrome trace-event
  renderings.
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
from .ringbuffer import RingBuffer
from .sampler import NetworkTelemetry
from .spans import Span, collective_spans

__all__ = [
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
    "RingBuffer",
    "Span",
    "TelemetryEvent",
    "TelemetryHub",
    "WALL_CLOCK_BUCKETS",
    "chrome_trace",
    "collective_spans",
    "json_snapshot",
    "prometheus_text",
]
