"""Fleet load generator: thousands of tenant apps driving the gateway.

Each tenant app is a self-scheduling arrival process on the simulated
clock: it samples its next issue gap from an exponential whose rate is
``base_rate * profile.rate_factor(now) * storm_factor`` (diurnal
modulation times any active tenant storm), fires a collective through
its :class:`~repro.service.transport.GatewayClient`, and re-arms.  All
randomness is drawn from per-tenant generators seeded from
``(seed, tenant_id)``, so a fleet of 1000 tenants replays exactly.

Tenant archetypes are drawn from the production product groups of
:func:`repro.workloads.production.product_group_breakdowns` — the comm
share of each group sets how chatty its tenants are — and the storm API
(:meth:`FleetLoadGenerator.storm` / :meth:`~FleetLoadGenerator.calm`)
is what :class:`~repro.faults.injector.FaultInjector` drives for
``tenant_storm`` fault events.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from ..workloads.arrivals import DiurnalProfile
from ..workloads.production import product_group_breakdowns
from .transport import GatewayClient, InProcessTransport

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .gateway import GatewayResponse, ServiceGateway

#: QoS class -> share of the tenant population.
QOS_WEIGHTS = {"high": 0.2, "normal": 0.6, "low": 0.2}


@dataclass(frozen=True)
class TenantAppSpec:
    """One tenant application's traffic shape."""

    tenant_id: str
    qos_class: str
    #: Sustained issue rate in requests/second before modulation.
    rate: float
    #: Collective payload in bytes.
    nbytes: int
    #: Product-group archetype the spec was drawn from.
    group: str = "A"


def fleet_specs(
    num_tenants: int,
    *,
    seed: int = 0,
    base_rate: float = 20.0,
    nbytes_choices: Sequence[int] = (1 << 16, 1 << 18, 1 << 20),
) -> List[TenantAppSpec]:
    """Draw a deterministic tenant population from production archetypes.

    Each tenant picks a product group; the group's communication share
    scales its request rate (comm-heavy groups are chattier).  QoS
    classes follow :data:`QOS_WEIGHTS`.
    """
    if num_tenants <= 0:
        raise ValueError("need a positive tenant count")
    rng = random.Random(seed)
    groups = product_group_breakdowns(seed=2024)
    classes = list(QOS_WEIGHTS)
    class_w = [QOS_WEIGHTS[c] for c in classes]
    specs: List[TenantAppSpec] = []
    for i in range(num_tenants):
        group = groups[rng.randrange(len(groups))]
        qos = rng.choices(classes, weights=class_w)[0]
        # comm share in [0.15, 0.45] -> rate scale in roughly [0.5, 1.5]
        rate = base_rate * (0.5 + 2.0 * group.comm) * rng.uniform(0.8, 1.2)
        specs.append(
            TenantAppSpec(
                tenant_id=f"tenant-{i:04d}",
                qos_class=qos,
                rate=rate,
                nbytes=rng.choice(list(nbytes_choices)),
                group=group.group,
            )
        )
    return specs


@dataclass
class _TenantApp:
    """Runtime state of one generating tenant."""

    spec: TenantAppSpec
    client: GatewayClient
    comm_id: int
    rng: random.Random
    storm_factor: float = 1.0
    #: Bumped on every (re-)arm; a pending fire of an older arm is stale.
    armed: int = 0
    issued: int = 0
    ok: int = 0
    rejected: int = 0
    failed: int = 0
    outcomes: Dict[int, int] = field(default_factory=dict)


class FleetLoadGenerator:
    """Replays a tenant population against one gateway until ``horizon``.

    Usage::

        gen = FleetLoadGenerator(gateway, specs, seed=7)
        gen.start(horizon=20.0)
        deployment.run()
        stats = gen.stats()
    """

    def __init__(
        self,
        gateway: "ServiceGateway",
        specs: Sequence[TenantAppSpec],
        *,
        seed: int = 0,
        profile: Optional[DiurnalProfile] = None,
    ) -> None:
        self.gateway = gateway
        self.sim = gateway.sim
        self.specs = list(specs)
        self.seed = seed
        self.profile = profile or DiurnalProfile()
        self.transport = InProcessTransport(gateway)
        self.horizon = 0.0
        self._apps: Dict[str, _TenantApp] = {}
        self._started = False

    # ------------------------------------------------------------------
    def _tenant_rng(self, tenant_id: str) -> random.Random:
        return random.Random((self.seed << 32) ^ zlib.crc32(tenant_id.encode()))

    def provision(self, gpu_assignment: Dict[str, Sequence[int]]) -> None:
        """Register every spec'd tenant and open its communicator.

        Args:
            gpu_assignment: tenant_id -> global GPU ids of its
                communicator (the experiment decides placement).
        """
        from .registry import TenantQuota

        for spec in self.specs:
            account = self.gateway.register_tenant(
                spec.tenant_id,
                TenantQuota(
                    qos_class=spec.qos_class,
                    rate=max(spec.rate * 2.0, 10.0),
                    burst=max(spec.rate * 0.5, 8.0),
                ),
            )
            session = self.gateway.session_of(spec.tenant_id)
            gpus = [
                self.gateway.deployment.cluster.gpu(g)
                for g in gpu_assignment[spec.tenant_id]
            ]
            comm = session.client.create_communicator(gpus)
            account.comm_ids.append(comm.comm_id)
            self._apps[spec.tenant_id] = _TenantApp(
                spec=spec,
                client=GatewayClient(self.transport, api_key=account.key.raw),
                comm_id=comm.comm_id,
                rng=self._tenant_rng(spec.tenant_id),
            )

    # ------------------------------------------------------------------
    def start(self, horizon: float) -> None:
        """Arm every tenant's arrival process up to ``horizon``."""
        if not self._apps:
            raise RuntimeError("provision() the fleet before start()")
        self._started = True
        self.horizon = horizon
        for app in self._apps.values():
            self._arm(app)

    def _arm(self, app: _TenantApp) -> None:
        now = self.sim.now
        rate = (
            app.spec.rate
            * self.profile.rate_factor(now)
            * app.storm_factor
        )
        gap = app.rng.expovariate(rate) if rate > 0 else float("inf")
        when = now + gap
        app.armed += 1
        if when > self.horizon:
            return
        armed = app.armed
        self.sim.call_in(gap, lambda: self._fire(app, armed))

    def _fire(self, app: _TenantApp, armed: int) -> None:
        if armed != app.armed or self.sim.now > self.horizon:
            return  # a later arm replaced this arrival, or the run is over
        app.issued += 1

        def consume(response: "GatewayResponse") -> None:
            app.outcomes[response.status] = (
                app.outcomes.get(response.status, 0) + 1
            )
            if response.ok:
                app.ok += 1
            elif response.status in (429, 503, 504):
                app.rejected += 1
            else:
                app.failed += 1

        app.client.collective(app.comm_id, app.spec.nbytes, on_response=consume)
        self._arm(app)

    # ------------------------------------------------------------------
    # tenant storms (driven by the fault injector)
    # ------------------------------------------------------------------
    def storm(self, tenant_id: str, factor: float) -> None:
        """Multiply one tenant's arrival rate (a misbehaving app)."""
        app = self._apps.get(tenant_id)
        if app is None:
            return
        app.storm_factor = factor
        if self._started and self.sim.now <= self.horizon:
            # Re-arm so the spike takes effect immediately, not after the
            # previously sampled (long) gap; the re-arm retires that gap.
            self._arm(app)

    def calm(self, tenant_id: str) -> None:
        """End a storm: restore the tenant's spec'd rate."""
        app = self._apps.get(tenant_id)
        if app is not None:
            app.storm_factor = 1.0

    def bind_injector(self, injector) -> None:
        """Wire ``tenant_storm``/``tenant_calm`` fault events to this
        generator (see :class:`repro.faults.injector.FaultInjector`)."""
        injector.on_tenant_storm = self.storm
        injector.on_tenant_calm = self.calm

    # ------------------------------------------------------------------
    def apps(self) -> List[_TenantApp]:
        return list(self._apps.values())

    def stats(self) -> Dict[str, object]:
        issued = sum(a.issued for a in self._apps.values())
        ok = sum(a.ok for a in self._apps.values())
        rejected = sum(a.rejected for a in self._apps.values())
        failed = sum(a.failed for a in self._apps.values())
        outcomes: Dict[int, int] = {}
        for app in self._apps.values():
            for status, count in app.outcomes.items():
                outcomes[status] = outcomes.get(status, 0) + count
        return {
            "tenants": len(self._apps),
            "issued": issued,
            "ok": ok,
            "rejected": rejected,
            "failed": failed,
            "outcomes": outcomes,
        }
