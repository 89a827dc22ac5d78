"""The telemetry hub: one object owning every observability store.

Every :class:`~repro.core.deployment.MccsDeployment` builds one
:class:`TelemetryHub` on its cluster's simulator and threads it through
the service layers — frontend, proxies, reconfiguration manager,
transport, controller — so every counter increment, span, and decision
event lands in the same place.  ``MccsDeployment.telemetry()`` hands it
to callers; the exporters in :mod:`repro.telemetry.exporters` render it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from .causal import CausalTracer, FlightRecorder
from .events import MAX_EVENTS, EventLog
from .exporters import chrome_trace, json_snapshot, prometheus_text
from .metrics import MetricsRegistry
from .sampler import NetworkTelemetry
from .slo import SloTracker
from .spans import MAX_SPANS, Span, SpanRecorder, collective_spans

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..netsim.engine import FlowSimulator


class TelemetryHub:
    """Aggregates metrics, spans, events, network samples and causal
    traces of one simulator.

    ``hub.spans`` stores reconfiguration spans only — collectives are
    rendered from the causal tracer's trees, see :meth:`exported_spans`.
    Every store is a ring sized by a constant of the module that defines
    it (``MAX_SPANS``, ``MAX_EVENTS``, the sampler's and the tracer's).
    """

    def __init__(self, sim: "FlowSimulator") -> None:
        self.metrics = MetricsRegistry()
        self.spans = SpanRecorder(MAX_SPANS)
        self.events = EventLog(MAX_EVENTS)
        self.slo = SloTracker(self.metrics)
        self.network = NetworkTelemetry(sim, self.metrics)
        self.causal = CausalTracer(sim, self.metrics)
        self.flight = FlightRecorder(self.causal, self.metrics, self.events)
        self._resilience_provider: Optional[
            Callable[[], Dict[str, int]]
        ] = None

    def set_resilience_provider(
        self, provider: Optional[Callable[[], Dict[str, int]]]
    ) -> None:
        """Install the callback publishing recovery/overload state
        (journal size, crashes, restarts, sheds) into the summary."""
        self._resilience_provider = provider

    # ------------------------------------------------------------------
    # export surface
    # ------------------------------------------------------------------
    def to_prometheus(self) -> str:
        """Prometheus text exposition of every metric."""
        return prometheus_text(self.metrics)

    def to_json(self) -> Dict[str, object]:
        """JSON-ready snapshot of metrics, spans, events, link series."""
        return json_snapshot(self)

    def to_chrome_trace(self) -> Dict[str, object]:
        """Chrome trace-event rendering of spans and decision events."""
        return chrome_trace(self.exported_spans(), self.events)

    def exported_spans(self) -> List[Span]:
        """Every span an export shows, by start time: the stored
        reconfiguration spans, and the collective spans rendered from the
        causal trees the tracer still retains (closed ring + live)."""
        spans = self.spans.spans() + collective_spans(
            self.causal.closed_traces() + self.causal.live_traces(),
            self.spans.next_id,
        )
        spans.sort(key=lambda span: span.start)
        return spans

    # ------------------------------------------------------------------
    def summary_lines(self) -> list:
        """Short human-readable digest (used by examples/quickstart)."""
        lines = []
        counters = self.metrics.counters()
        for name in sorted(counters):
            total = counters[name].total()
            lines.append(f"{name} = {total:g}")
        for name, histogram in sorted(self.metrics.histograms().items()):
            for labels, state in histogram.samples():
                label_text = (
                    "{" + ",".join(f"{k}={v}" for k, v in sorted(labels.items())) + "}"
                    if labels
                    else ""
                )
                mean = state.sum / state.count if state.count else 0.0
                lines.append(
                    f"{name}{label_text}  count={state.count} mean={mean:.6g}s"
                )
        lines.append(f"spans recorded = {len(self.spans)} (evicted {self.spans.evicted})")
        lines.append(f"decision events = {len(self.events)} (evicted {self.events.evicted})")
        lines.append(
            "link series = "
            f"{len(self.network.sampled_links())} links, "
            f"{self.network.samples_taken} sampling passes"
        )
        for name, value in sorted(self.network.publish_perf_counters().items()):
            lines.append(f"netsim.{name} = {value}")
        cache_stats = self.network.publish_program_cache()
        if cache_stats is not None:
            for name, value in sorted(cache_stats.items()):
                lines.append(f"program_cache.{name} = {value}")
        if self._resilience_provider is not None:
            for name, value in sorted(self._resilience_provider().items()):
                lines.append(f"resilience.{name} = {value}")
        return lines
