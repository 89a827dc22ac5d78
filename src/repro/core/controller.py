"""The external centralized controller (§4.3).

"To enable an external controller (e.g., centralized manager) to schedule
the collective communication across all applications on the cluster, the
MCCS service needs to provide an interface for exposing necessary
information ... The controller consumes this data to make a policy
decision."

:class:`CentralManager` is that controller: it reads the deployment's
management API (communicator descriptions, traces, background-flow
reports), runs the §4.3 policies, and pushes decisions back down as
reconfigurations, route maps and traffic schedules.  Rescheduling happens
"only when a job joins or exits" (or when a switch agent reports a
persistent background flow), matching §6.5.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from ..cluster.gpu import GpuDevice
from ..netsim.background import BackgroundTrafficManager
from ..netsim.errors import PolicyError
from ..telemetry.ringbuffer import RingBuffer
from .communicator import ServiceCommunicator
from .deployment import MccsDeployment
from .policies.ffa import fair_flow_assignment
from .policies.pfa import priority_flow_assignment
from .policies.ring_order import locality_ring_order
from .policies.ts import compute_traffic_schedule
from .strategy import CollectiveStrategy


#: Policy passes :attr:`CentralManager.reports` keeps, newest last (every
#: pass is also a ``policy_run`` event).
REPORTS_KEPT = 256


@dataclass
class PolicyReport:
    """What a controller pass decided, plus how long deciding took."""

    policy: str
    reconfigured_comms: List[int] = field(default_factory=list)
    compute_seconds: float = 0.0


class CentralManager:
    """Cluster-wide policy brain for one MCCS deployment."""

    def __init__(
        self,
        deployment: MccsDeployment,
        *,
        background: Optional[BackgroundTrafficManager] = None,
    ) -> None:
        self.deployment = deployment
        self.cluster = deployment.cluster
        self.background = background
        self.reports: RingBuffer[PolicyReport] = RingBuffer(REPORTS_KEPT)

    def _record_report(self, report: PolicyReport) -> PolicyReport:
        """File a policy pass in the reports ring and the telemetry
        decision log (the §4.3 "policy decision" trail)."""
        self.reports.append(report)
        hub = self.deployment.telemetry()
        hub.metrics.counter(
            "mccs_policy_runs_total", "Controller policy passes, by policy."
        ).inc(policy=report.policy)
        hub.events.log(
            self.deployment.sim.now,
            "policy_run",
            f"{report.policy} reconfigured "
            f"{len(report.reconfigured_comms)} communicator(s)",
            policy=report.policy,
            reconfigured=list(report.reconfigured_comms),
            compute_seconds=report.compute_seconds,
        )
        return report

    # ------------------------------------------------------------------
    # admission: provider-optimized initial strategy
    # ------------------------------------------------------------------
    def initial_strategy(
        self, gpus: Sequence[GpuDevice], channels: int
    ) -> CollectiveStrategy:
        """Locality-aware ring from day one (the provider knows the
        topology at communicator-creation time)."""
        from ..collectives.ring import RingSchedule

        order = locality_ring_order(self.cluster, gpus)
        return CollectiveStrategy(
            ring=RingSchedule(tuple(order)), channels=channels
        )

    def admit(
        self,
        app_id: str,
        gpus: Sequence[GpuDevice],
        *,
        channels: Optional[int] = None,
        datapath_tag: Optional[str] = None,
    ) -> ServiceCommunicator:
        """Create a communicator already carrying the optimized ring.

        ``datapath_tag`` pins the communicator's ECMP namespace so its
        path draws do not depend on its id or strategy version —
        experiments comparing policies or strategies on the same edges
        should pass one.
        """
        from ..baselines.nccl import default_channels

        if channels is None:
            channels = default_channels(gpus)
        return self.deployment.create_communicator(
            app_id, gpus, channels=channels,
            strategy=self.initial_strategy(gpus, channels),
            datapath_tag=datapath_tag,
        )

    def manage_admissions(self) -> None:
        """Give every future tenant-created communicator a locality ring.

        Installs this controller as the deployment's strategy factory, so
        ``MccsClient.create_communicator`` transparently benefits from the
        provider's topology knowledge — the tenant never learns the ring.
        """
        self.deployment.strategy_factory = (
            lambda app_id, gpus, channels: self.initial_strategy(gpus, channels)
        )

    def enable_autotuning(self):
        """Arm measurement-driven strategy autotuning cluster-wide.

        Delegates to :meth:`MccsDeployment.enable_autotuning` and files
        the decision in the §4.3 policy trail; returns the
        :class:`~repro.autotune.AutoTuner`.
        """
        tuner = self.deployment.enable_autotuning()
        self._record_report(PolicyReport(policy="autotune"))
        return tuner

    # ------------------------------------------------------------------
    # Example #1: locality-aware rings
    # ------------------------------------------------------------------
    def apply_ring_policy(self, **reconfig_kw) -> PolicyReport:
        """Reconfigure any communicator whose ring is not locality-optimal."""
        started = time.perf_counter()
        report = PolicyReport(policy="locality-ring")
        for comm in self.deployment.communicators():
            order = tuple(locality_ring_order(self.cluster, comm.gpus))
            if comm.strategy.ring.order != order:
                self.deployment.reconfigure(
                    comm.comm_id, ring=order, **reconfig_kw
                )
                report.reconfigured_comms.append(comm.comm_id)
        report.compute_seconds = time.perf_counter() - started
        return self._record_report(report)

    # ------------------------------------------------------------------
    # Examples #2 and #3: flow assignment
    # ------------------------------------------------------------------
    def apply_flow_policy(
        self,
        policy: str = "ffa",
        *,
        high_priority_apps: Sequence[str] = (),
        reserved_routes: Optional[Set[int]] = None,
        **reconfig_kw,
    ) -> PolicyReport:
        """Recompute and install route assignments for every communicator.

        ``policy`` is one of ``"ecmp"`` (clear all assignments — the
        ablation baseline), ``"ffa"`` or ``"pfa"``.
        """
        started = time.perf_counter()
        comms = self.deployment.communicators()
        if policy == "ecmp":
            assignments = {c.comm_id: {} for c in comms}
        elif policy == "ffa":
            assignments = fair_flow_assignment(self.cluster, comms)
        elif policy == "pfa":
            assignments = priority_flow_assignment(
                self.cluster,
                comms,
                high_priority_apps=list(high_priority_apps),
                reserved_routes=reserved_routes,
            )
        else:
            raise PolicyError(f"unknown flow policy {policy!r}")
        report = PolicyReport(policy=policy)
        for comm in comms:
            routes = assignments.get(comm.comm_id, {})
            if comm.strategy.route_map() != routes:
                self.deployment.reconfigure(
                    comm.comm_id, routes=routes, **reconfig_kw
                )
                report.reconfigured_comms.append(comm.comm_id)
        report.compute_seconds = time.perf_counter() - started
        return self._record_report(report)

    # ------------------------------------------------------------------
    # Example #4: traffic scheduling
    # ------------------------------------------------------------------
    def prioritize_with_ts(
        self,
        app_id: str,
        *,
        guard: float = 0.0,
        affected_apps: Optional[Sequence[str]] = None,
    ) -> PolicyReport:
        """Gate other tenants' traffic into the prioritized tenant's idle
        cycles, using the tracing API.

        ``affected_apps`` restricts which tenants are gated (the §6.4
        scenario prioritizes B over C "without affecting A", so only C is
        gated); by default every other tenant is.
        """
        started = time.perf_counter()
        traces = [
            comm.trace
            for comm in self.deployment.communicators()
            if comm.app_id == app_id
        ]
        if not traces:
            raise PolicyError(f"no traces for app {app_id!r}")
        trace = max(traces, key=lambda t: len(t.records))
        _, schedule = compute_traffic_schedule(trace, guard=guard)
        report = PolicyReport(policy="ts")
        if affected_apps is None:
            others = {
                comm.app_id
                for comm in self.deployment.communicators()
                if comm.app_id != app_id
            }
        else:
            others = set(affected_apps) - {app_id}
        for other in sorted(others):
            self.deployment.set_traffic_schedule(other, schedule)
        report.compute_seconds = time.perf_counter() - started
        return self._record_report(report)

    def clear_traffic_schedules(self) -> None:
        for comm in self.deployment.communicators():
            self.deployment.set_traffic_schedule(comm.app_id, None)

    # ------------------------------------------------------------------
    # background-flow adaptation (the Figure 7 showcase)
    # ------------------------------------------------------------------
    def watch_background(
        self,
        *,
        interval: float = 1.0,
        threshold_gbps: float = 10.0,
        until: float,
    ) -> None:
        """Automate the Figure 7 loop: poll the switch agent's persistent-
        flow report every ``interval`` seconds and re-ring any managed
        communicator that would benefit, until time ``until``.

        The paper leaves monitoring "to external components": "a switch
        agent can be configured to report to a centralized manager when
        there are persistent large flows that are not managed by MCCS".
        This is that manager-side loop.
        """
        if self.background is None:
            raise PolicyError("no background traffic manager attached")
        sim = self.deployment.sim

        def tick() -> None:
            if sim.now > until:
                return
            if self.background.report_persistent_flows(threshold_gbps):
                for comm in self.deployment.communicators():
                    try:
                        self.adapt_to_background(comm.comm_id)
                    except Exception:
                        # a communicator mid-reconfiguration keeps running
                        # under its old strategy until the next poll
                        pass
            sim.call_in(interval, tick)

        sim.call_in(interval, tick)

    def adapt_to_background(self, comm_id: int, **reconfig_kw) -> Optional[object]:
        """React to a switch agent's persistent-flow report by re-ringing.

        Candidate rings (the locality order and its reverse) are scored by
        the background load their inter-host paths would share; if a
        better ring than the current one exists, a reconfiguration is
        issued and the session returned.
        """
        if self.background is None:
            raise PolicyError("no background traffic manager attached")
        loads = self.background.loaded_links()
        comm = self.deployment.communicator(comm_id)
        candidates = []
        base = locality_ring_order(self.cluster, comm.gpus)
        for order in (tuple(base), tuple(reversed(base))):
            candidates.append((self._background_overlap(comm, order, loads), order))
        candidates.sort(key=lambda item: item[0])
        best_score, best_order = candidates[0]
        current_score = self._background_overlap(
            comm, comm.strategy.ring.order, loads
        )
        if best_score < current_score - 1e-9:
            return self.deployment.reconfigure(
                comm.comm_id, ring=best_order, **reconfig_kw
            )
        return None

    def _background_overlap(
        self,
        comm: ServiceCommunicator,
        order: Sequence[int],
        loads: Dict[str, float],
    ) -> float:
        """Total background Gbps sharing links with the ring's flows."""
        total = 0.0
        world = len(order)
        for i in range(world):
            src = comm.gpus[order[i]]
            dst = comm.gpus[order[(i + 1) % world]]
            if src.host_id == dst.host_id:
                continue
            for channel in range(comm.strategy.channels):
                src_nic = self.cluster.nic_of_channel(src, channel)
                dst_nic = self.cluster.nic_of_channel(dst, channel)
                paths = self.cluster.topology.shortest_paths(src_nic, dst_nic)
                # Score the least-loaded route; with route control MCCS
                # would pin the connection there.
                total += min(
                    sum(loads.get(link, 0.0) for link in path) for path in paths
                )
        return total
