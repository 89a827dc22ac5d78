"""Fault plans: seedable, deterministic schedules of infrastructure faults.

A :class:`FaultPlan` is an ordered list of :class:`FaultEvent` entries,
built explicitly through its builders (experiments injecting one
well-placed fault, the fleet's tenant storms) or from the seeded walk of
a :class:`BandwidthDriftPlan`.  Randomized chaos is not drawn here: the
test suite's state machine picks each fault and hands it to
:meth:`~repro.faults.FaultInjector.apply`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional, Sequence, Tuple


class FaultKind(str, Enum):
    """What kind of component fails (or recovers)."""

    LINK_DOWN = "link_down"
    LINK_UP = "link_up"
    LINK_DEGRADE = "link_degrade"
    LINK_RESTORE = "link_restore"
    NIC_FAIL = "nic_fail"
    NIC_RECOVER = "nic_recover"
    HOST_CRASH = "host_crash"
    #: The per-host MCCS *service process* dies; host and GPUs survive.
    SERVICE_CRASH = "service_crash"
    #: The service process is restarted (journal replay).
    ENGINE_RESTART = "engine_restart"
    #: A link's capacity is *resized* (WAN bandwidth drift).  Unlike
    #: ``LINK_DEGRADE`` the factor may exceed 1 and pinned routes are
    #: re-resolved, modelling a provider-side capacity change rather
    #: than a fault on the device.
    BANDWIDTH_DRIFT = "bandwidth_drift"
    #: One tenant's request rate spikes by ``factor`` (a runaway app
    #: hammering the service gateway).
    TENANT_STORM = "tenant_storm"
    #: The storming tenant returns to its normal rate.
    TENANT_CALM = "tenant_calm"


#: Kinds that target a link id.
_LINK_KINDS = {
    FaultKind.LINK_DOWN,
    FaultKind.LINK_UP,
    FaultKind.LINK_DEGRADE,
    FaultKind.LINK_RESTORE,
    FaultKind.BANDWIDTH_DRIFT,
}
#: Kinds that target a (host, nic) pair.
_NIC_KINDS = {FaultKind.NIC_FAIL, FaultKind.NIC_RECOVER}
#: Kinds that target a host's service process.
_SERVICE_KINDS = {FaultKind.SERVICE_CRASH, FaultKind.ENGINE_RESTART}
#: Kinds that target one tenant application's traffic.
_TENANT_KINDS = {FaultKind.TENANT_STORM, FaultKind.TENANT_CALM}


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    Attributes:
        time: Absolute simulation time the fault strikes.
        kind: What happens.
        link_id: Target link (link kinds only).
        host_id: Target host (NIC and host kinds).
        nic_index: Target NIC index within the host (NIC kinds only).
        factor: Remaining capacity fraction for ``LINK_DEGRADE``
            (0.25 = the link keeps a quarter of its capacity), or the
            resize multiplier for ``BANDWIDTH_DRIFT`` (may exceed 1).
        app_id: Target tenant for the tenant kinds (``TENANT_STORM`` /
            ``TENANT_CALM``); ``factor`` is the storm's rate multiplier.
    """

    time: float
    kind: FaultKind
    link_id: Optional[str] = None
    host_id: Optional[int] = None
    nic_index: Optional[int] = None
    factor: float = 1.0
    app_id: Optional[str] = None

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError("fault time must be non-negative")
        if self.kind in _LINK_KINDS and self.link_id is None:
            raise ValueError(f"{self.kind.value} needs a link_id")
        if self.kind in _NIC_KINDS and (
            self.host_id is None or self.nic_index is None
        ):
            raise ValueError(f"{self.kind.value} needs host_id and nic_index")
        if self.kind is FaultKind.HOST_CRASH and self.host_id is None:
            raise ValueError("host_crash needs a host_id")
        if self.kind in _SERVICE_KINDS and self.host_id is None:
            raise ValueError(f"{self.kind.value} needs a host_id")
        if self.kind is FaultKind.LINK_DEGRADE and not 0.0 < self.factor < 1.0:
            raise ValueError("degrade factor must be in (0, 1)")
        if self.kind is FaultKind.BANDWIDTH_DRIFT and self.factor <= 0.0:
            raise ValueError("drift factor must be positive")
        if self.kind in _TENANT_KINDS and self.app_id is None:
            raise ValueError(f"{self.kind.value} needs an app_id")
        if self.kind is FaultKind.TENANT_STORM and self.factor <= 1.0:
            raise ValueError("storm factor must exceed 1")

    def describe(self) -> str:
        if self.kind in _LINK_KINDS:
            target = self.link_id
        elif self.kind in _NIC_KINDS:
            target = f"h{self.host_id}.nic{self.nic_index}"
        elif self.kind in _TENANT_KINDS:
            target = str(self.app_id)
        else:
            target = f"h{self.host_id}"
        extra = (
            f" x{self.factor:g}"
            if self.kind
            in (
                FaultKind.LINK_DEGRADE,
                FaultKind.BANDWIDTH_DRIFT,
                FaultKind.TENANT_STORM,
            )
            else ""
        )
        return f"t={self.time:g}s {self.kind.value} {target}{extra}"


@dataclass
class FaultPlan:
    """An ordered schedule of fault events.

    Builder methods append events (optionally with an automatic recovery
    ``duration`` later) and return ``self`` for chaining; :attr:`events`
    yields them sorted by time.
    """

    _events: List[FaultEvent] = field(default_factory=list)

    @property
    def events(self) -> Tuple[FaultEvent, ...]:
        return tuple(sorted(self._events, key=lambda e: e.time))

    def __len__(self) -> int:
        return len(self._events)

    def add(self, event: FaultEvent) -> "FaultPlan":
        self._events.append(event)
        return self

    # ------------------------------------------------------------------
    # builders
    # ------------------------------------------------------------------
    def link_down(
        self, time: float, link_id: str, *, duration: Optional[float] = None
    ) -> "FaultPlan":
        """Take ``link_id`` down at ``time``; back up after ``duration``."""
        self.add(FaultEvent(time, FaultKind.LINK_DOWN, link_id=link_id))
        if duration is not None:
            self.add(FaultEvent(time + duration, FaultKind.LINK_UP, link_id=link_id))
        return self

    def link_degrade(
        self,
        time: float,
        link_id: str,
        factor: float,
        *,
        duration: Optional[float] = None,
    ) -> "FaultPlan":
        """Cut ``link_id`` to ``factor`` of its capacity at ``time``."""
        self.add(
            FaultEvent(time, FaultKind.LINK_DEGRADE, link_id=link_id, factor=factor)
        )
        if duration is not None:
            self.add(
                FaultEvent(time + duration, FaultKind.LINK_RESTORE, link_id=link_id)
            )
        return self

    def nic_fail(
        self,
        time: float,
        host_id: int,
        nic_index: int,
        *,
        duration: Optional[float] = None,
    ) -> "FaultPlan":
        self.add(
            FaultEvent(time, FaultKind.NIC_FAIL, host_id=host_id, nic_index=nic_index)
        )
        if duration is not None:
            self.add(
                FaultEvent(
                    time + duration,
                    FaultKind.NIC_RECOVER,
                    host_id=host_id,
                    nic_index=nic_index,
                )
            )
        return self

    def host_crash(self, time: float, host_id: int) -> "FaultPlan":
        """Crash ``host_id`` at ``time``.  Hosts do not come back."""
        return self.add(FaultEvent(time, FaultKind.HOST_CRASH, host_id=host_id))

    def service_crash(
        self, time: float, host_id: int, *, duration: Optional[float] = None
    ) -> "FaultPlan":
        """Kill the MCCS service process on ``host_id`` at ``time``.

        Unlike a host crash, the host and its GPUs survive.  With
        ``duration`` given, an :attr:`FaultKind.ENGINE_RESTART` is paired
        that many seconds later (modelling an external supervisor); leave
        it ``None`` when the deployment's own
        :class:`~repro.core.supervisor.ServiceSupervisor` handles the
        restart.
        """
        self.add(FaultEvent(time, FaultKind.SERVICE_CRASH, host_id=host_id))
        if duration is not None:
            self.add(
                FaultEvent(
                    time + duration, FaultKind.ENGINE_RESTART, host_id=host_id
                )
            )
        return self

    def engine_restart(self, time: float, host_id: int) -> "FaultPlan":
        """Restart a previously crashed service on ``host_id``."""
        return self.add(
            FaultEvent(time, FaultKind.ENGINE_RESTART, host_id=host_id)
        )

    def bandwidth_drift(
        self,
        time: float,
        link_id: str,
        factor: float,
        *,
        duration: Optional[float] = None,
    ) -> "FaultPlan":
        """Resize ``link_id`` to ``factor`` of its original capacity.

        With ``duration`` given, a ``LINK_RESTORE`` is paired that many
        seconds later, putting the original capacity back.
        """
        self.add(
            FaultEvent(
                time, FaultKind.BANDWIDTH_DRIFT, link_id=link_id, factor=factor
            )
        )
        if duration is not None:
            self.add(
                FaultEvent(time + duration, FaultKind.LINK_RESTORE, link_id=link_id)
            )
        return self

    def tenant_storm(
        self,
        time: float,
        app_id: str,
        *,
        factor: float = 50.0,
        duration: Optional[float] = None,
    ) -> "FaultPlan":
        """Spike ``app_id``'s request rate by ``factor`` at ``time``.

        Storms are always transient: a paired ``TENANT_CALM`` restores
        the tenant's normal rate after ``duration`` (default 0.5 s).
        """
        if duration is None:
            duration = 0.5
        self.add(
            FaultEvent(
                time, FaultKind.TENANT_STORM, app_id=app_id, factor=factor
            )
        )
        self.add(
            FaultEvent(time + duration, FaultKind.TENANT_CALM, app_id=app_id)
        )
        return self

    def describe(self) -> List[str]:
        return [event.describe() for event in self.events]


@dataclass
class BandwidthDriftPlan:
    """Seedable random-walk of WAN link capacities.

    Every ``interval`` seconds each link in ``links`` takes one bounded
    step: its capacity factor moves by up to ``max_step`` (uniform,
    either direction) and is clamped to ``factor_range``.  The walk is
    fully determined by ``seed``, so a drifting-WAN experiment replays
    exactly.  With ``restore`` set, every link is restored to its
    original capacity one interval after the last step.
    """

    links: Sequence[str]
    start: float = 0.5
    interval: float = 0.5
    steps: int = 4
    factor_range: Tuple[float, float] = (0.25, 1.0)
    max_step: float = 0.25
    seed: int = 0
    restore: bool = True

    def to_fault_plan(self, plan: Optional[FaultPlan] = None) -> FaultPlan:
        """Materialize the walk as ``BANDWIDTH_DRIFT`` fault events."""
        if plan is None:
            plan = FaultPlan()
        lo, hi = self.factor_range
        if not 0.0 < lo <= hi:
            raise ValueError("factor_range must satisfy 0 < lo <= hi")
        rng = random.Random(self.seed)
        factors = {link: 1.0 for link in self.links}
        for step in range(self.steps):
            time = self.start + step * self.interval
            for link in self.links:
                factor = factors[link] + rng.uniform(-self.max_step, self.max_step)
                factor = min(hi, max(lo, factor))
                factors[link] = factor
                plan.bandwidth_drift(time, link, factor)
        if self.restore:
            time = self.start + self.steps * self.interval
            for link in self.links:
                plan.add(
                    FaultEvent(time, FaultKind.LINK_RESTORE, link_id=link)
                )
        return plan
