"""Bounded log of controller and policy decision events.

The paper's centralized manager "consumes this data to make a policy
decision" (§4.3); the decision itself is part of the observability story,
so every policy pass, reconfiguration command, and traffic-schedule
install appends a :class:`TelemetryEvent` here.  The log is a ring buffer
— a service that reschedules on every job arrival must not keep an
unbounded decision history.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .ringbuffer import RingBuffer

#: Capacity of a hub's decision-event ring (``hub.events``).
MAX_EVENTS = 2048


@dataclass(frozen=True)
class TelemetryEvent:
    """One control-plane decision, stamped in simulation time."""

    time: float
    kind: str
    message: str = ""
    attrs: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "time": self.time,
            "kind": self.kind,
            "message": self.message,
            "attrs": dict(self.attrs),
        }


class EventLog:
    """Bounded, append-only event store."""

    def __init__(self, max_events: int = MAX_EVENTS) -> None:
        self._events: RingBuffer[TelemetryEvent] = RingBuffer(max_events)

    def log(
        self, time: float, kind: str, message: str = "", **attrs: object
    ) -> TelemetryEvent:
        event = TelemetryEvent(time=time, kind=kind, message=message, attrs=attrs)
        self._events.append(event)
        return event

    def events(self, kind: Optional[str] = None) -> List[TelemetryEvent]:
        if kind is None:
            return self._events.to_list()
        return [e for e in self._events if e.kind == kind]

    @property
    def evicted(self) -> int:
        return self._events.evicted

    def __len__(self) -> int:
        return len(self._events)
