"""The fault injector: applies a :class:`FaultPlan` to a live cluster.

The injector is deliberately one-way: it breaks infrastructure (topology
link state, NIC/host alive flags, in-flight flows, proxy engines) and
counts what it broke, but never tells the control plane.  Detection has to
come from the same signals a real deployment would see — failed flows,
launches hitting a dead proxy, missed heartbeats, blown deadlines.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from ..netsim.errors import HostCrashedError
from .plan import FaultEvent, FaultKind, FaultPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cluster.specs import Cluster
    from ..core.deployment import MccsDeployment
    from ..telemetry.hub import TelemetryHub


class FaultInjector:
    """Schedules fault events onto a cluster's simulation clock.

    Args:
        cluster: The installation to break.
        telemetry: Hub receiving ``mccs_faults_injected_total`` and
            decision-log entries (``deployment.telemetry()``, or a
            ``TelemetryHub(cluster.sim)`` when there is no deployment).
        deployment: Optional MCCS deployment; when given, host crashes
            also kill the host's proxy engines (otherwise only the
            network side of the crash is modelled).
    """

    def __init__(
        self,
        cluster: "Cluster",
        telemetry: "TelemetryHub",
        *,
        deployment: Optional["MccsDeployment"] = None,
    ) -> None:
        self.cluster = cluster
        self.sim = cluster.sim
        self.deployment = deployment
        self.telemetry = telemetry
        #: (time, event) pairs in application order, for experiment reports.
        self.injected: List[Tuple[float, FaultEvent]] = []
        # Pre-degradation capacities, so LINK_RESTORE can undo a cut.
        self._saved_caps: Dict[str, float] = {}
        # Links a NIC failure took down, so NIC_RECOVER restores exactly those.
        self._nic_links: Dict[Tuple[int, int], List[str]] = {}
        #: Tenant-storm hooks, wired by whatever drives tenant traffic
        #: (``FleetLoadGenerator.bind_injector``).  Storm receives
        #: ``(app_id, factor)``; calm receives ``(app_id,)``.
        self.on_tenant_storm: Optional[Callable[[str, float], None]] = None
        self.on_tenant_calm: Optional[Callable[[str], None]] = None

    # ------------------------------------------------------------------
    def schedule(self, plan: FaultPlan) -> None:
        """Arm every event of ``plan`` on the simulation clock."""
        for event in plan.events:
            self.sim.schedule(event.time, lambda event=event: self.apply(event))

    def apply(self, event: FaultEvent) -> None:
        """Apply one fault right now (normally called by the scheduler)."""
        handler = {
            FaultKind.LINK_DOWN: lambda: self.fail_link(event.link_id),
            FaultKind.LINK_UP: lambda: self.restore_link(event.link_id),
            FaultKind.LINK_DEGRADE: lambda: self.degrade_link(
                event.link_id, event.factor
            ),
            FaultKind.LINK_RESTORE: lambda: self.restore_capacity(event.link_id),
            FaultKind.NIC_FAIL: lambda: self.fail_nic(event.host_id, event.nic_index),
            FaultKind.NIC_RECOVER: lambda: self.recover_nic(
                event.host_id, event.nic_index
            ),
            FaultKind.HOST_CRASH: lambda: self.crash_host(event.host_id),
            FaultKind.SERVICE_CRASH: lambda: self.crash_service(event.host_id),
            FaultKind.ENGINE_RESTART: lambda: self.restart_service(
                event.host_id
            ),
            FaultKind.BANDWIDTH_DRIFT: lambda: self.drift_bandwidth(
                event.link_id, event.factor
            ),
            FaultKind.RANK_LEAVE: lambda: self.rank_leave(event.comm_id),
            FaultKind.RANK_JOIN: lambda: self.rank_join(event.comm_id),
            FaultKind.TENANT_STORM: lambda: self.tenant_storm(
                event.app_id, event.factor
            ),
            FaultKind.TENANT_CALM: lambda: self.tenant_calm(event.app_id),
        }[event.kind]
        handler()
        self.injected.append((self.sim.now, event))
        self.telemetry.metrics.counter(
            "mccs_faults_injected_total",
            "Infrastructure faults applied by the injector, by kind.",
        ).inc(kind=event.kind.value)
        self.telemetry.events.log(
            self.sim.now, "fault_injected", event.describe(),
            fault=event.kind.value,
        )

    # ------------------------------------------------------------------
    # link faults
    # ------------------------------------------------------------------
    def fail_link(self, link_id: str) -> None:
        self.sim.fail_link(link_id)

    def restore_link(self, link_id: str) -> None:
        self.sim.restore_link(link_id)

    def degrade_link(self, link_id: str, factor: float) -> None:
        """Cut the link to ``factor`` of its *original* capacity."""
        if link_id not in self._saved_caps:
            self._saved_caps[link_id] = self.sim.link_capacity(link_id)
        self.sim.set_link_capacity(link_id, self._saved_caps[link_id] * factor)

    def restore_capacity(self, link_id: str) -> None:
        original = self._saved_caps.pop(link_id, None)
        if original is not None:
            # A resized link is news to pinned routes, so go through the
            # epoch-bumping entry point rather than set_link_capacity.
            self.sim.set_link_bandwidth(link_id, original)

    def drift_bandwidth(self, link_id: str, factor: float) -> None:
        """Resize the link to ``factor`` of its *original* capacity.

        Unlike :meth:`degrade_link` this models a provider-side capacity
        change (WAN bandwidth drift): pinned routes are re-resolved via
        the topology's routing epoch, and the factor may exceed 1.
        """
        if link_id not in self._saved_caps:
            self._saved_caps[link_id] = self.sim.link_capacity(link_id)
        self.sim.set_link_bandwidth(link_id, self._saved_caps[link_id] * factor)

    # ------------------------------------------------------------------
    # NIC faults
    # ------------------------------------------------------------------
    def fail_nic(self, host_id: int, nic_index: int) -> None:
        """Kill one NIC: its endpoint links go down, rotation skips it."""
        nic = self.cluster.hosts[host_id].nics[nic_index]
        if not nic.alive:
            return
        nic.alive = False
        links = self.cluster.links_of_nic(host_id, nic_index)
        self._nic_links[(host_id, nic_index)] = links
        reason = f"NIC {nic.node_id} failed"
        for link_id in links:
            self.sim.fail_link(link_id, reason=reason)

    def recover_nic(self, host_id: int, nic_index: int) -> None:
        nic = self.cluster.hosts[host_id].nics[nic_index]
        if nic.alive or not self.cluster.hosts[host_id].alive:
            return
        nic.alive = True
        for link_id in self._nic_links.pop((host_id, nic_index), []):
            self.sim.restore_link(link_id)

    # ------------------------------------------------------------------
    # host crashes
    # ------------------------------------------------------------------
    def crash_host(self, host_id: int) -> None:
        """Crash a host: NICs die, its links go down, proxies stop.

        In-flight flows touching the host's links die via the link
        failures — which is exactly how the rest of the network observes
        a crash; only the host's own proxies learn the real cause.
        """
        host = self.cluster.hosts[host_id]
        if not host.alive:
            return
        host.alive = False
        for nic in host.nics:
            nic.alive = False
        for link_id in self.cluster.links_of_host(host_id):
            self.sim.fail_link(link_id, reason=f"host {host_id} crashed")
        if self.deployment is not None:
            for proxy in self.deployment.service_of(host_id).proxies.values():
                proxy.fail(HostCrashedError(f"host {host_id} crashed"))

    # ------------------------------------------------------------------
    # service-process faults
    # ------------------------------------------------------------------
    def crash_service(self, host_id: int) -> None:
        """Kill the MCCS service process on ``host_id``.

        The host, its GPUs, and the network all survive — only the
        control-plane process dies.  Without a deployment there is no
        service process to kill, so this is a documented no-op.
        """
        if self.deployment is None:
            return
        if not self.cluster.hosts[host_id].alive:
            return
        self.deployment.crash_service(host_id)

    def restart_service(self, host_id: int) -> None:
        """Restart a crashed service (journal replay).  No-op without a
        deployment or while the host itself is down."""
        if self.deployment is None:
            return
        if not self.cluster.hosts[host_id].alive:
            return
        self.deployment.restart_service(host_id)

    # ------------------------------------------------------------------
    # elastic membership churn
    # ------------------------------------------------------------------
    def rank_leave(self, comm_id: Optional[int] = None) -> None:
        """One rank leaves a communicator gracefully (elastic shrink).

        Delegates to the deployment's elastic coordinator; a documented
        no-op when elasticity is not armed or no communicator can shrink.
        """
        elastic = getattr(self.deployment, "elastic", None)
        if elastic is None:
            return
        elastic.chaos_shrink(comm_id)

    def rank_join(self, comm_id: Optional[int] = None) -> None:
        """A spare GPU joins a communicator (elastic grow).  No-op when
        elasticity is not armed or no spare GPU is available."""
        elastic = getattr(self.deployment, "elastic", None)
        if elastic is None:
            return
        elastic.chaos_grow(comm_id)

    # ------------------------------------------------------------------
    # tenant storms
    # ------------------------------------------------------------------
    def tenant_storm(self, app_id: str, factor: float) -> None:
        """One tenant's request rate spikes by ``factor``.  A documented
        no-op until a load generator wires :attr:`on_tenant_storm`."""
        if self.on_tenant_storm is not None:
            self.on_tenant_storm(app_id, factor)

    def tenant_calm(self, app_id: str) -> None:
        """The storming tenant returns to its normal rate."""
        if self.on_tenant_calm is not None:
            self.on_tenant_calm(app_id)
