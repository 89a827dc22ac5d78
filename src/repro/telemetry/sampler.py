"""Network-layer telemetry: flow lifecycle metrics.

:class:`NetworkTelemetry` is a :class:`~repro.netsim.engine.SimObserver`
that turns the engine's raw notifications into metrics:

* flow add/complete counters and byte counters, labelled by job,
* a flow-duration histogram (the fluid FCT distribution),
* a preemption counter fed by gate transitions (the TS policy's
  time-window scheduling shows up here).

It schedules nothing on the simulator.  The provider's link view — the
confidential signal the paper's §4.3 policies consume — is a query, not
a series kept here: :meth:`~repro.netsim.engine.FlowSimulator.link_bytes`
returns the exact bytes each link has carried, and the JSON export
renders it.
"""

from __future__ import annotations

from itertools import groupby
from operator import attrgetter
from typing import Callable, Dict, NamedTuple, Optional, Sequence, Set

from ..netsim.engine import FlowSimulator, SimObserver
from ..netsim.flows import Flow
from .metrics import BoundCounter, BoundHistogram, MetricsRegistry


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
    """Counts the fluid simulator's flow lifecycle into a metrics registry.

    Args:
        sim: Engine to observe; the instance attaches itself.
        metrics: Registry that receives the flow/byte/preemption metrics.
    """

    def __init__(self, sim: FlowSimulator, metrics: MetricsRegistry) -> None:
        self.sim = sim
        self.metrics = metrics
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
        #: Jobs that completed a flow of non-integer size.
        self._fractional_jobs: Set[Optional[str]] = set()
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

    def on_flows_completed(self, flows: Sequence[Flow], now: float) -> None:
        # One update per run of one job and start time (so one duration,
        # one bucket search), exactly as if delivered singly: integer byte
        # sums are exact in any grouping, so only a job that ever moved a
        # non-integer size adds it per flow.
        for (job_id, start), run in groupby(flows, attrgetter("job_id", "start_time")):
            series = self._series_of(job_id)
            sizes = [flow.size for flow in run]
            series.completed.inc(len(sizes))
            series.duration.observe_run(now - start, len(sizes))
            if job_id not in self._fractional_jobs and all(
                type(size) is int for size in sizes
            ):
                series.bytes_moved.inc(sum(sizes))
            else:
                self._fractional_jobs.add(job_id)
                for size in sizes:
                    series.bytes_moved.inc(size)
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

    # ------------------------------------------------------------------
    # engine-core performance counters
    # ------------------------------------------------------------------
    def publish_perf_counters(self) -> Dict[str, int]:
        """Copy the engine's :meth:`FlowSimulator.perf_counters` into gauges.

        Called on demand (summary/export time), never from the engine's
        hot path.  Gauge names are the counter names
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
