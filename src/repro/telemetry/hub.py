"""The telemetry hub: one object owning every observability store.

Every :class:`~repro.core.deployment.MccsDeployment` builds one
:class:`TelemetryHub` on its cluster's simulator and threads it through
the service layers — frontend, proxies, reconfiguration manager,
transport, controller — so every counter increment, causal tree,
reconfiguration session and decision event lands in the same place.
``MccsDeployment.telemetry()`` hands it to callers; the exporters in
:mod:`repro.telemetry.exporters` render it.  Spans are one of those
renderings, never a store: ``hub.spans`` draws them from the causal ring
and the session ring on every read.  A tenant's SLO account is another:
the gateway's ``GET /v1/slo`` reads it from the registry's series.  The
link view is a third: the exporters read the bytes each link carried from
the simulator (``hub.sim.link_bytes()``) when asked.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional

from .causal import CausalTracer, FlightRecorder
from .events import MAX_EVENTS, EventLog
from .exporters import chrome_trace, json_snapshot, prometheus_text
from .metrics import MetricsRegistry
from .ringbuffer import RingBuffer
from .sampler import NetworkTelemetry
from .spans import SpanWindow

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..netsim.engine import FlowSimulator

#: Reconfiguration sessions ``hub.sessions`` keeps, newest last — also the
#: export window for reconfiguration spans (readers audit one
#: communicator's tuned run: a few dozen).
SESSIONS_KEPT = 256


class TelemetryHub:
    """Aggregates metrics, causal traces, reconfiguration sessions and
    events of one simulator.

    ``hub.sessions`` is the ring of reconfiguration session records the
    :class:`~repro.core.reconfig.ReconfigManager` appends to; ``hub.spans``
    is the export window rendered from it and the causal tracer's trees.
    Every store is a ring sized by a constant of the module that defines
    it (``SESSIONS_KEPT``, ``MAX_EVENTS``, the tracer's).
    """

    def __init__(self, sim: "FlowSimulator") -> None:
        self.sim = sim
        self.metrics = MetricsRegistry()
        self.sessions = RingBuffer(SESSIONS_KEPT)
        self.events = EventLog(MAX_EVENTS)
        self.network = NetworkTelemetry(sim, self.metrics)
        self.causal = CausalTracer(sim)
        self.spans = SpanWindow(self.sessions, self.causal)
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
        """JSON-ready snapshot of metrics, spans, events, link bytes."""
        return json_snapshot(self)

    def to_chrome_trace(self) -> Dict[str, object]:
        """Chrome trace-event rendering of spans and decision events."""
        return chrome_trace(self.spans, self.events)

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
        lines.append(f"spans exported = {len(list(self.spans))} (evicted {self.spans.evicted})")
        lines.append(f"decision events = {len(self.events)} (evicted {self.events.evicted})")
        lines.append(f"links that carried bytes = {len(self.sim.link_bytes())}")
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
