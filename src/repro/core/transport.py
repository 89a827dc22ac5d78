"""Transport-engine mechanisms: traffic gating for time-window QoS.

The MCCS transport engine is "responsible for providing the underlying
mechanisms for scheduling flows on network paths" and, for the traffic
scheduling (TS) policy, for "allow[ing] other applications to send traffic
only when the prioritized application is idle" (§4.3, Example 4).

Path pinning is handled by the route-id selectors built into each
communicator's :class:`~repro.core.communicator.VersionedDataPath`; this
module supplies the *when* half: a :class:`WindowSchedule` describing when
an application may transmit, and a :class:`TrafficGateManager` that gates
and releases the application's live flows on the simulator clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

from ..netsim.engine import FlowSimulator
from ..netsim.flows import Flow

if TYPE_CHECKING:  # pragma: no cover
    from ..telemetry.hub import TelemetryHub

_EPS = 1e-9


@dataclass(frozen=True)
class WindowSchedule:
    """A periodic transmission window.

    Within each period of length ``period`` starting at phase ``t0``, the
    application may send during ``open_intervals`` (relative offsets).
    The TS policy computes these windows from the prioritized tenant's
    trace: everyone else's windows are the prioritized tenant's idle
    (compute) phases.
    """

    period: float
    open_intervals: Tuple[Tuple[float, float], ...]
    t0: float = 0.0

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ValueError("period must be positive")
        last_end = 0.0
        for start, end in self.open_intervals:
            if not 0.0 <= start < end <= self.period + _EPS:
                raise ValueError(f"bad interval ({start}, {end})")
            if start < last_end - _EPS:
                raise ValueError("intervals must be sorted and disjoint")
            last_end = end

    def phase(self, t: float) -> float:
        return (t - self.t0) % self.period

    def is_open(self, t: float) -> bool:
        p = self.phase(t)
        return any(s - _EPS <= p < e - _EPS for s, e in self.open_intervals)

    def next_toggle(self, t: float) -> float:
        """The next absolute time the open/closed state changes."""
        p = self.phase(t)
        boundaries: List[float] = []
        for s, e in self.open_intervals:
            boundaries.extend((s, e))
        for b in boundaries:
            if b > p + _EPS:
                return t + (b - p)
        # wrap to the first boundary of the next period
        first = boundaries[0] if boundaries else self.period
        return t + (self.period - p) + first


class TrafficGateManager:
    """Gates tenant flows according to per-application window schedules.

    The manager is shared by all transport engines of a deployment; each
    communicator hands it every launch batch at injection time, and policy
    code installs or clears schedules through
    :meth:`TrafficGateManager.set_schedule`.  It keeps no per-flow state:
    whenever a window toggles it asks the simulator for the app's
    in-network flows, so a completed or cancelled flow cannot be re-gated.
    """

    def __init__(self, sim: FlowSimulator, telemetry: "TelemetryHub") -> None:
        self._sim = sim
        self._telemetry = telemetry
        self._schedules: Dict[str, WindowSchedule] = {}
        self._ticking: Set[str] = set()
        self.gate_transitions = 0

    # -- policy interface -------------------------------------------------
    def set_schedule(self, app_id: str, schedule: Optional[WindowSchedule]) -> None:
        """Install (or clear, with ``None``) an app's transmission windows."""
        self._telemetry.events.log(
            self._sim.now,
            "traffic_schedule",
            ("cleared" if schedule is None else "installed")
            + f" for {app_id}",
            app=app_id,
            period=None if schedule is None else schedule.period,
        )
        if schedule is None:
            self._schedules.pop(app_id, None)
            for flow in self._flows_of(app_id):
                self._sim.gate_flow(flow, False)
            return
        self._schedules[app_id] = schedule
        self._apply(app_id)
        self._ensure_ticker(app_id)

    # -- transport interface ------------------------------------------------
    def register(self, flows: Sequence[Flow]) -> None:
        """See one freshly injected launch batch (the flows of one app);
        gate it if the app's window is closed."""
        if not self._schedules:
            return
        app_id = flows[0].job_id or ""
        schedule = self._schedules.get(app_id)
        if schedule is not None:
            if not schedule.is_open(self._sim.now):
                for flow in flows:
                    self._sim.gate_flow(flow, True)
                self.gate_transitions += len(flows)
            self._ensure_ticker(app_id)

    # -- internals ---------------------------------------------------------
    def _flows_of(self, app_id: str) -> List[Flow]:
        return [
            f for f in self._sim.active_flows() if (f.job_id or "") == app_id
        ]

    def _apply(self, app_id: str) -> List[Flow]:
        """Bring the app's in-network flows in line with its window;
        returns them."""
        schedule = self._schedules.get(app_id)
        open_now = schedule is None or schedule.is_open(self._sim.now)
        flows = self._flows_of(app_id)
        for flow in flows:
            if flow.gated == open_now:
                self._sim.gate_flow(flow, not open_now)
                self.gate_transitions += 1
        return flows

    def _ensure_ticker(self, app_id: str) -> None:
        if app_id in self._ticking:
            return
        self._ticking.add(app_id)
        self._tick(app_id)

    def _tick(self, app_id: str) -> None:
        schedule = self._schedules.get(app_id)
        if schedule is None:
            self._ticking.discard(app_id)
            return
        if not self._apply(app_id):
            # Nothing live to gate: let the ticker sleep so the simulator
            # can drain; it restarts on the app's next flow registration.
            self._ticking.discard(app_id)
            return
        when = schedule.next_toggle(self._sim.now)
        self._sim.schedule(when, lambda: self._tick(app_id))
