"""Network-layer telemetry: flow lifecycle metrics + link-utilization series.

:class:`NetworkTelemetry` is a :class:`~repro.netsim.engine.SimObserver`
that turns the engine's raw notifications into metrics:

* flow add/complete counters and byte counters, labelled by job,
* a flow-duration histogram (the fluid FCT distribution),
* a preemption counter fed by gate transitions (the TS policy's
  time-window scheduling shows up here),
* periodic samples of ``link_utilization()`` into bounded ring buffers,
  one series per link — the confidential provider-side signal the paper's
  §4.3 policies consume.

The periodic sampler is *self-stopping*: its tick only reschedules while
at least one flow is active, so a simulation run to quiescence
(``sim.run()`` with no deadline) still terminates.  The ticker restarts
whenever a flow enters the network or a gated flow is released.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..netsim.engine import FlowSimulator, SimObserver
from ..netsim.flows import Flow
from .metrics import BoundCounter, BoundHistogram, MetricsRegistry
from .ringbuffer import RingBuffer

#: One utilization sample: (sim_time, utilization in [0, 1]).
LinkSample = Tuple[float, float]

#: Simulated seconds between link samples, and samples kept per link.
SAMPLE_INTERVAL = 0.25
MAX_SAMPLES = 4096


class _JobSeries(NamedTuple):
    """The per-job label handles, bound the first time a job is seen."""

    added: BoundCounter
    completed: BoundCounter
    cancelled: BoundCounter
    failed: BoundCounter
    bytes_moved: BoundCounter
    preemptions: BoundCounter
    duration: BoundHistogram


class NetworkTelemetry(SimObserver):
    """Samples the fluid simulator into a metrics registry.

    Args:
        sim: Engine to observe; the instance attaches itself.
        metrics: Registry that receives the flow/byte/preemption metrics.

    Link samples are :data:`SAMPLE_INTERVAL` apart and each link keeps the
    last :data:`MAX_SAMPLES` (both read when used).
    """

    def __init__(self, sim: FlowSimulator, metrics: MetricsRegistry) -> None:
        self.sim = sim
        self.metrics = metrics
        self._series: Dict[str, RingBuffer[LinkSample]] = {}
        self._ticker_running = False
        self.samples_taken = 0
        #: Installed by the deployment: returns aggregated
        #: :meth:`FlowProgramCache.stats` over its communicators.
        self._program_cache_provider: Optional[
            Callable[[], Dict[str, int]]
        ] = None

        self._flows_total = metrics.counter(
            "mccs_flows_total", "Flows injected into the network, by job."
        )
        self._flows_completed = metrics.counter(
            "mccs_flows_completed_total", "Flows drained to completion, by job."
        )
        self._flows_cancelled = metrics.counter(
            "mccs_flows_cancelled_total",
            "Flows torn down before completing (reconfig, background stop).",
        )
        self._flows_failed = metrics.counter(
            "mccs_flows_failed_total",
            "Flows killed by injected faults (link down, host crash), by job.",
        )
        self._bytes_total = metrics.counter(
            "mccs_bytes_moved_total", "Bytes fully delivered, by job."
        )
        self._preemptions = metrics.counter(
            "mccs_flow_preemptions_total",
            "Flow gate closures (traffic-schedule preemptions), by job.",
        )
        self._active_flows = metrics.gauge(
            "mccs_active_flows", "Flows currently in the network."
        ).labels()
        self._flow_duration = metrics.histogram(
            "mccs_flow_duration_seconds",
            "Flow completion time (fluid model), by job.",
        )

        self._by_job: Dict[Optional[str], _JobSeries] = {}
        sim.add_observer(self)

    def _series_of(self, job_id: Optional[str]) -> _JobSeries:
        series = self._by_job.get(job_id)
        if series is None:
            job = job_id or "none"
            series = self._by_job[job_id] = _JobSeries(
                self._flows_total.labels(job=job),
                self._flows_completed.labels(job=job),
                self._flows_cancelled.labels(job=job),
                self._flows_failed.labels(job=job),
                self._bytes_total.labels(job=job),
                self._preemptions.labels(job=job),
                self._flow_duration.labels(job=job),
            )
        return series

    # ------------------------------------------------------------------
    # SimObserver interface
    # ------------------------------------------------------------------
    def on_flows_added(self, flows: Sequence[Flow], now: float) -> None:
        self._series_of(flows[0].job_id).added.inc(len(flows))
        self._active_flows.set(self.sim.active_flow_count())
        self._start_ticker()

    def on_flows_completed(self, flows: Sequence[Flow], now: float) -> None:
        job_id = flows[0].job_id
        series = self._series_of(job_id)
        run = 0
        for flow in flows:
            if flow.job_id != job_id:
                series.completed.inc(run)
                run = 0
                job_id = flow.job_id
                series = self._series_of(job_id)
            run += 1
            # Float sums take one update per flow, in completion order, so
            # they come out exactly as if the flows were delivered singly.
            series.bytes_moved.inc(flow.size)
            series.duration.observe(now - flow.start_time)
        series.completed.inc(run)
        self._active_flows.set(self.sim.active_flow_count())

    def on_flow_cancelled(self, flow: Flow, now: float) -> None:
        self._series_of(flow.job_id).cancelled.inc()
        self._active_flows.set(self.sim.active_flow_count())

    def on_flow_failed(self, flow: Flow, now: float) -> None:
        self._series_of(flow.job_id).failed.inc()
        self._active_flows.set(self.sim.active_flow_count())

    def on_flow_gated(self, flow: Flow, gated: bool, now: float) -> None:
        if gated:
            self._series_of(flow.job_id).preemptions.inc()
        else:
            # A released flow may be the only traffic; make sure the
            # sampler sees it drain.
            self._start_ticker()

    # ------------------------------------------------------------------
    # periodic link sampling
    # ------------------------------------------------------------------
    def _start_ticker(self) -> None:
        if self._ticker_running:
            return
        self._ticker_running = True
        self.sim.call_in(SAMPLE_INTERVAL, self._tick)

    def _tick(self) -> None:
        self.sample_now()
        if any(f.active for f in self.sim.active_flows()):
            self.sim.call_in(SAMPLE_INTERVAL, self._tick)
        else:
            self._ticker_running = False

    def sample_now(self) -> Dict[str, float]:
        """Record one utilization sample per loaded link, immediately."""
        utilization = self.sim.link_utilization()
        now = self.sim.now
        for link_id, value in utilization.items():
            series = self._series.get(link_id)
            if series is None:
                series = self._series[link_id] = RingBuffer(MAX_SAMPLES)
            series.append((now, value))
        self.samples_taken += 1
        return utilization

    # ------------------------------------------------------------------
    # engine-core performance counters
    # ------------------------------------------------------------------
    def publish_perf_counters(self) -> Dict[str, int]:
        """Copy the engine's :meth:`FlowSimulator.perf_counters` into gauges.

        Called on demand (summary/export time) rather than per sample so the
        hot sampling path stays cheap.  Gauge names are the counter names
        under the ``mccs_netsim_`` prefix, e.g.
        ``mccs_netsim_solver_rebuilds_avoided``.
        """
        counters = self.sim.perf_counters()
        for name, value in counters.items():
            self.metrics.gauge(
                f"mccs_netsim_{name}",
                "Flow-simulator engine-core performance counter.",
            ).set(value)
        return counters

    # ------------------------------------------------------------------
    # flow-program cache gauges
    # ------------------------------------------------------------------
    def set_program_cache_provider(
        self, provider: Callable[[], Dict[str, int]]
    ) -> None:
        """Install the source of aggregated flow-program cache stats."""
        self._program_cache_provider = provider

    def publish_program_cache(self) -> Optional[Dict[str, int]]:
        """Copy aggregated :meth:`FlowProgramCache.stats` into gauges.

        Like :meth:`publish_perf_counters`, called on demand at summary /
        export time.  Gauge names are ``mccs_program_cache_<stat>``
        (``hits``, ``misses``, ``size``, ``evictions``).  Returns ``None``
        when no provider is installed.
        """
        if self._program_cache_provider is None:
            return None
        stats = self._program_cache_provider()
        for name, value in stats.items():
            self.metrics.gauge(
                f"mccs_program_cache_{name}",
                "Aggregated flow-program cache statistic across live "
                "communicators.",
            ).set(value)
        return stats

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def link_series(self, link_id: str) -> List[LinkSample]:
        """(time, utilization) samples recorded for one link."""
        series = self._series.get(link_id)
        return series.to_list() if series is not None else []

    def sampled_links(self) -> List[str]:
        return sorted(self._series)

    def evicted_samples(self, link_id: Optional[str] = None) -> int:
        if link_id is not None:
            series = self._series.get(link_id)
            return series.evicted if series is not None else 0
        return sum(series.evicted for series in self._series.values())

    def utilization_snapshot(self) -> Dict[str, object]:
        """JSON-ready dump of every link series."""
        return {
            link_id: {
                "samples": [[t, u] for t, u in series],
                "evicted": series.evicted,
            }
            for link_id, series in sorted(self._series.items())
        }
