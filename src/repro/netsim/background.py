"""Background (non-collective) traffic injection.

Figure 7 of the paper demonstrates MCCS adapting a tenant's ring around a
75 Gbps background flow that appears on one inter-switch link.  The paper
"leaves the monitoring of background flows to external components" — e.g. a
switch agent reporting persistent elephant flows to the centralized
manager.  This module provides both halves of that story for the
simulation: a generator of persistent background load and a trivially
accurate "switch agent" that reports which links carry it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from .engine import FlowSimulator
from .flows import Flow


@dataclass
class BackgroundFlow:
    """A persistent background load on an explicit path.

    The fluid simulator works with finite flow sizes, so a persistent load
    is modelled as a very large flow that is cancelled when stopped.  The
    ``offered_gbps`` load is realized by giving the flow a fairness weight
    proportional to the offered rate — under per-flow fairness this makes
    it claim the intended share when competing with unit-weight tenant
    flows (e.g. a weight-3 background flow against one unit tenant flow on
    a 100G link leaves the tenant 25G, matching the Figure 7 scenario).
    """

    path: Sequence[str]
    offered_gbps: float
    flow: Optional[Flow] = None

    @property
    def active(self) -> bool:
        return self.flow is not None and not self.flow.completed


class BackgroundTrafficManager:
    """Starts/stops background flows and answers link-load queries."""

    #: Size given to persistent flows; long enough to outlive experiments.
    PERSISTENT_BYTES = 1e15

    def __init__(self, sim: FlowSimulator) -> None:
        self._sim = sim
        self._flows: List[BackgroundFlow] = []
        self._occupied: Dict[str, float] = {}

    def start(
        self,
        path: Sequence[str],
        offered_gbps: float,
        *,
        weight: Optional[float] = None,
    ) -> BackgroundFlow:
        """Begin a persistent background flow along ``path``.

        Args:
            path: Link-id path the load traverses.
            offered_gbps: Nominal offered load, used to derive the fairness
                weight when ``weight`` is not given.
            weight: Explicit fairness weight override.
        """
        if offered_gbps <= 0:
            raise ValueError("offered_gbps must be positive")
        if weight is None:
            # Weight such that against a single unit-weight competitor on a
            # link of capacity c, the background flow receives
            # offered/(offered + remaining share) of the link, i.e. it
            # behaves like `offered_gbps` worth of unit flows on a 25G-unit
            # basis.  We normalize to 25 Gbps per unit of weight.
            weight = offered_gbps / 25.0
        bg = BackgroundFlow(path=tuple(path), offered_gbps=offered_gbps)
        bg.flow = self._sim.add_flow(
            self.PERSISTENT_BYTES,
            path,
            job_id="background",
            weight=weight,
            tags={"background": True, "offered_gbps": offered_gbps},
        )
        self._flows.append(bg)
        return bg

    def stop(self, bg: BackgroundFlow) -> None:
        """Terminate a background flow."""
        if bg.flow is not None:
            self._sim.cancel_flow(bg.flow)
            bg.flow = None

    # ------------------------------------------------------------------
    # capacity-occupation mode (constant-bit-rate background traffic)
    # ------------------------------------------------------------------
    def occupy(self, link_id: str, gbps: float) -> None:
        """Model a constant-bit-rate background load on one link.

        This is the Figure 7 scenario: a 75 Gbps flow appears on a 100 Gbps
        inter-switch link and "the available capacity for the AllReduce job
        drops to 25 Gbps" — i.e. the background traffic takes its offered
        rate off the top rather than sharing fairly.  Implemented by
        reducing the link's capacity.
        """
        if gbps <= 0:
            raise ValueError("gbps must be positive")
        current = self._sim.link_capacity(link_id)
        taken = gbps * 1e9 / 8.0
        if taken >= current:
            raise ValueError(
                f"background load {gbps} Gbps exceeds remaining capacity"
            )
        self._occupied.setdefault(link_id, 0.0)
        self._occupied[link_id] += gbps
        self._sim.set_link_capacity(link_id, current - taken)

    # ------------------------------------------------------------------
    # the "switch agent" view used by the centralized manager
    # ------------------------------------------------------------------
    def loaded_links(self) -> Dict[str, float]:
        """Map of link id -> total offered background load (Gbps)."""
        loads: Dict[str, float] = {}
        for bg in self._flows:
            if not bg.active:
                continue
            for link in bg.path:
                loads[link] = loads.get(link, 0.0) + bg.offered_gbps
        for link, gbps in self._occupied.items():
            if gbps > 0:
                loads[link] = loads.get(link, 0.0) + gbps
        return loads

    def report_persistent_flows(self, threshold_gbps: float = 10.0) -> List[str]:
        """Links carrying background load above ``threshold_gbps``.

        This mimics the switch agent of §6.2 that reports persistent large
        flows outside MCCS's management to the centralized manager.
        """
        return sorted(
            link
            for link, load in self.loaded_links().items()
            if load >= threshold_gbps
        )
