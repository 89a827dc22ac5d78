"""Overload protection: bounded request admission with QoS-aware shedding.

The frontend engines are the service's open door: nothing in §4.1 stops a
tenant from queueing unbounded work and starving everyone sharing the
host.  This module bounds them.  Each application is assigned a QoS class
(the Figure 9 setups map the high-priority training job to ``"high"`` and
the fine-tuning jobs to lower classes); every collective/p2p request is
checked against

* the class's per-tenant in-flight quota, and
* an optional deployment-wide in-flight cap under which only the highest
  priority class keeps being admitted (priority-aware load shedding).

A shed request raises the typed :class:`AdmissionRejectedError` back
through the command queue — a *decision*, which the shim surfaces rather
than retries — and is counted in ``mccs_admission_total`` /
``mccs_shed_total``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from ..netsim.errors import AdmissionRejectedError, PolicyError
from ..resilience import QOS_LADDER

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .deployment import MccsDeployment


@dataclass(frozen=True)
class AdmissionPolicy:
    """Quotas of the admission controller.

    Attributes:
        classes: QoS class name -> max in-flight collectives per tenant
            of that class (``None`` = unlimited for that class).
        total_inflight: Deployment-wide in-flight cap; once reached, only
            the top class of :data:`~repro.resilience.QOS_LADDER` is
            admitted.  ``None`` disables.
        default_class: Class of tenants never explicitly classified.
    """

    classes: Tuple[Tuple[str, Optional[int]], ...] = (
        ("high", 64),
        ("normal", 16),
        ("low", 4),
    )
    total_inflight: Optional[int] = None
    default_class: str = "normal"

    def quota(self, qos: str) -> Optional[int]:
        for name, limit in self.classes:
            if name == qos:
                return limit
        raise PolicyError(f"unknown QoS class {qos!r}")


class AdmissionController:
    """Per-deployment admission control over frontend-engine requests."""

    def __init__(
        self,
        deployment: "MccsDeployment",
        policy: Optional[AdmissionPolicy] = None,
    ) -> None:
        self.deployment = deployment
        self.policy = policy if policy is not None else AdmissionPolicy()
        self.telemetry = deployment.telemetry()
        self._classes: Dict[str, str] = {}
        self.admitted_total = 0
        self.shed_total = 0

    # ------------------------------------------------------------------
    def set_class(self, app_id: str, qos: str) -> None:
        self.policy.quota(qos)  # validates the class name
        self._classes[app_id] = qos

    def class_of(self, app_id: str) -> str:
        return self._classes.get(app_id, self.policy.default_class)

    def outstanding(self, app_id: str) -> int:
        """Collectives currently in flight for one tenant."""
        return sum(
            len(comm.inflight)
            for comm in self.deployment.communicators()
            if comm.app_id == app_id
        )

    def total_outstanding(self) -> int:
        return sum(
            len(comm.inflight)
            for comm in self.deployment.communicators()
        )

    # ------------------------------------------------------------------
    def admit(self, app_id: str) -> None:
        """Admit or shed one data-path request; sheds raise typed errors."""
        qos = self.class_of(app_id)
        outstanding = self.outstanding(app_id)
        quota = self.policy.quota(qos)
        if quota is not None and outstanding >= quota:
            self._shed(
                app_id,
                qos,
                outstanding,
                f"tenant quota: {outstanding} in flight >= {quota} "
                f"({qos} class)",
            )
        if self.policy.total_inflight is not None:
            total = self.total_outstanding()
            if (
                total >= self.policy.total_inflight
                and qos != QOS_LADDER[0]
            ):
                self._shed(
                    app_id,
                    qos,
                    outstanding,
                    f"overload: {total} in flight deployment-wide >= "
                    f"{self.policy.total_inflight}; shedding non-"
                    f"{QOS_LADDER[0]} traffic",
                )
        self.admitted_total += 1
        self._count(app_id, qos, "admit")

    def _shed(
        self, app_id: str, qos: str, outstanding: int, reason: str
    ) -> None:
        self.shed_total += 1
        self._count(app_id, qos, "shed")
        self.telemetry.events.log(
            self.deployment.sim.now,
            "admission_shed",
            reason,
            app=app_id,
            qos=qos,
            outstanding=outstanding,
        )
        self.telemetry.metrics.counter(
            "mccs_shed_total",
            "Requests shed by admission control, by app and QoS class.",
        ).inc(app=app_id, qos=qos)
        self.telemetry.slo.record_shed(app_id)
        self.telemetry.flight.trigger(
            "admission_shed",
            self.deployment.sim.now,
            tenant=app_id,
            qos=qos,
            cause=reason,
        )
        raise AdmissionRejectedError(
            f"request from {app_id!r} shed by admission control ({reason})"
        )

    def _count(self, app_id: str, qos: str, decision: str) -> None:
        self.telemetry.metrics.counter(
            "mccs_admission_total",
            "Admission decisions on data-path requests, by outcome.",
        ).inc(app=app_id, qos=qos, decision=decision)
