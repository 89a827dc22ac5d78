"""Figure 7 — adapting a running job's ring to a background flow.

The showcase of §6.2: four hosts, one per switch, switches cabled in a
ring (Figure 7a).  An 8-GPU AllReduce job runs with a clockwise ring.  At
t~7.5 s a 75 Gbps background flow appears on one clockwise inter-switch
link, dropping the available capacity there to 25 Gbps and collapsing the
job's algorithm bandwidth (5.9 -> 1.7 GB/s in the paper).  At t~12 s the
centralized manager — informed by a switch agent's persistent-flow
report — issues a reconfiguration that transparently reverses the ring;
bandwidth recovers immediately, with the application never interrupted.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import List, Optional

from ..cluster.specs import ring_cluster
from ..core.controller import CentralManager
from ..core.deployment import MccsDeployment
from ..netsim.background import BackgroundTrafficManager
from ..netsim.units import MB
from ..telemetry import TelemetryHub
from ..telemetry.reporter import get_default_reporter
from .report import print_table


@dataclass(frozen=True)
class TimelinePoint:
    """One completed AllReduce: completion time and its bandwidth."""

    time: float
    algbw_gBps: float


@dataclass
class ReconfigTimeline:
    """The Figure 7b series plus the two event markers."""

    points: List[TimelinePoint]
    bg_start: float
    reconfig_issued: float
    reconfig_done: Optional[float]
    ring_before: tuple
    ring_after: tuple
    #: The deployment's telemetry hub — spans (including the reconfig
    #: barrier), metrics, and link-utilization series for this run.
    telemetry: TelemetryHub = field(repr=False)

    def bandwidth_in(self, start: float, end: float) -> float:
        window = [p.algbw_gBps for p in self.points if start <= p.time < end]
        if not window:
            raise ValueError(f"no samples in [{start}, {end})")
        return sum(window) / len(window)


def run_fig07(
    *,
    op_bytes: int = 256 * MB,
    duration: float = 20.0,
    bg_start: float = 7.5,
    reconfig_at: float = 12.0,
    bg_gbps: float = 75.0,
) -> ReconfigTimeline:
    """Replay the Figure 7 scenario; returns the bandwidth timeline."""
    cluster = ring_cluster()
    deployment = MccsDeployment(cluster)
    background = BackgroundTrafficManager(cluster.sim)
    manager = CentralManager(deployment, background=background)

    gpus = [g for host in cluster.hosts for g in host.gpus]
    state = manager.admit("tenant", gpus)
    ring_before = state.strategy.ring.order
    client = deployment.connect("tenant")
    comm = client.adopt_communicator(state.comm_id)

    points: List[TimelinePoint] = []

    def issue_next() -> None:
        client.all_reduce(comm, op_bytes, on_complete=completed)

    def completed(instance, now: float) -> None:
        points.append(TimelinePoint(now, op_bytes / instance.duration() / 1e9))
        if now < duration:
            issue_next()

    issue_next()
    # The background flow is outside MCCS's management: a switch agent
    # reports it, the manager reacts at reconfig_at.
    loaded_link = "sw1->sw2"  # a link on the clockwise ring
    cluster.sim.schedule(bg_start, lambda: background.occupy(loaded_link, bg_gbps))
    reconfig_done = {"time": None}

    def done(sess) -> None:
        reconfig_done["time"] = cluster.sim.now

    def react() -> None:
        manager.adapt_to_background(state.comm_id, on_done=done)

    cluster.sim.schedule(reconfig_at, react)
    deployment.run(until=duration + 1.0)
    return ReconfigTimeline(
        points=points,
        bg_start=bg_start,
        reconfig_issued=reconfig_at,
        reconfig_done=reconfig_done["time"],
        ring_before=ring_before,
        ring_after=deployment.communicator(state.comm_id).strategy.ring.order,
        telemetry=deployment.telemetry(),
    )


def main(trace_out: Optional[str] = None) -> None:
    """Run the Figure 7 scenario and report it.

    ``trace_out`` (or the ``MCCS_TRACE_OUT`` environment variable) names a
    file to receive the run's Chrome trace-event JSON — load it in
    ``chrome://tracing`` or Perfetto to see the reconfiguration barrier
    stall as a span between the collectives.
    """
    timeline = run_fig07()
    reporter = get_default_reporter()
    rows = []
    step = 1.0
    t = 0.0
    while t < 20.0:
        try:
            bw = timeline.bandwidth_in(t, t + step)
            rows.append((f"{t:.0f}-{t + step:.0f}s", f"{bw:.2f}"))
        except ValueError:
            rows.append((f"{t:.0f}-{t + step:.0f}s", "-"))
        t += step
    print_table(
        ["Window", "Algo BW (GB/s)"],
        rows,
        title="Figure 7b — AllReduce bandwidth around a 75G background flow",
    )
    reporter.line(f"background flow starts: t={timeline.bg_start}s")
    reporter.line(f"reconfig issued:        t={timeline.reconfig_issued}s")
    reporter.line(f"reconfig applied:       t={timeline.reconfig_done}")
    reporter.line(f"ring: {timeline.ring_before} -> {timeline.ring_after}")
    hub = timeline.telemetry
    stall = hub.metrics.histograms().get("mccs_barrier_stall_seconds")
    if stall is not None and stall.count() > 0:
        reporter.line(
            f"barrier stall:          {stall.mean() * 1e3:.3f} ms "
            f"over {stall.count()} reconfiguration(s)"
        )
    if trace_out is None:
        trace_out = os.environ.get("MCCS_TRACE_OUT")
    if trace_out:
        reporter.dump_json(hub.to_chrome_trace(), trace_out)


if __name__ == "__main__":
    main()
