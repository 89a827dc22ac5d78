"""Robustness primitives of the gateway: rate limits, breakers, brownout.

All of them run on the *simulated* clock — the caller passes ``now`` in —
and none of them arm periodic timers: the simulator runs to quiescence,
so every state change is driven by request traffic (token refill is
computed lazily, breakers transition on the first ``allow`` after the
cooldown, brownout levels are re-evaluated on queue/inflight changes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Deque, Optional, Tuple
from collections import deque

from ..netsim.errors import PolicyError
from ..resilience import QOS_LADDER
from ..telemetry.ringbuffer import RingBuffer

#: Level changes :attr:`BrownoutController.transitions` keeps, newest last
#: (each is also a ``brownout`` event).
TRANSITIONS_KEPT = 256


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/second, ``burst`` capacity.

    Refill is lazy (computed from the elapsed simulated time on each
    call), so an idle bucket costs nothing.
    """

    def __init__(self, rate: float, burst: float, *, now: float = 0.0) -> None:
        if rate <= 0 or burst <= 0:
            raise PolicyError("token bucket rate and burst must be positive")
        self.rate = rate
        self.burst = burst
        self.tokens = burst
        self.last = now

    def _refill(self, now: float) -> None:
        if now > self.last:
            self.tokens = min(self.burst, self.tokens + (now - self.last) * self.rate)
            self.last = now

    def try_take(self, now: float, n: float = 1.0) -> bool:
        """Take ``n`` tokens if available; never goes negative."""
        self._refill(now)
        if self.tokens >= n:
            self.tokens -= n
            return True
        return False

    def retry_after(self, now: float, n: float = 1.0) -> float:
        """Seconds until ``n`` tokens will be available (0 = now)."""
        self._refill(now)
        if self.tokens >= n:
            return 0.0
        return (n - self.tokens) / self.rate


class BreakerState(str, Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


@dataclass(frozen=True)
class BreakerPolicy:
    """Per-tenant circuit breaker knobs.

    The breaker watches a rolling window of dispatch outcomes (5xx
    failures and timeouts count against it; 4xx client errors do not)
    and opens once the failure fraction crosses ``failure_threshold``.
    After ``cooldown`` simulated seconds it lets ``half_open_probes``
    requests through: all succeeding closes it, any failing re-opens it.
    """

    window: int = 16
    min_samples: int = 6
    failure_threshold: float = 0.5
    cooldown: float = 0.25
    half_open_probes: int = 1


class CircuitBreaker:
    """One tenant's circuit breaker."""

    def __init__(self, policy: Optional[BreakerPolicy] = None) -> None:
        self.policy = policy or BreakerPolicy()
        self.state = BreakerState.CLOSED
        self._outcomes: Deque[bool] = deque(maxlen=self.policy.window)
        self._open_until = 0.0
        self._probes_inflight = 0
        self._probes_ok = 0
        self.trips = 0

    # ------------------------------------------------------------------
    def allow(self, now: float) -> bool:
        """May a request pass right now?  (May transition OPEN->HALF_OPEN.)"""
        if self.state is BreakerState.CLOSED:
            return True
        if self.state is BreakerState.OPEN:
            if now < self._open_until:
                return False
            self.state = BreakerState.HALF_OPEN
            self._probes_inflight = 0
            self._probes_ok = 0
        # HALF_OPEN: admit up to half_open_probes concurrent probes.
        if self._probes_inflight < self.policy.half_open_probes:
            self._probes_inflight += 1
            return True
        return False

    def record_success(self, now: float) -> None:
        if self.state is BreakerState.HALF_OPEN:
            self._probes_inflight = max(0, self._probes_inflight - 1)
            self._probes_ok += 1
            if self._probes_ok >= self.policy.half_open_probes:
                self.state = BreakerState.CLOSED
                self._outcomes.clear()
            return
        self._outcomes.append(True)

    def record_failure(self, now: float) -> None:
        if self.state is BreakerState.HALF_OPEN:
            self._probes_inflight = max(0, self._probes_inflight - 1)
            self._trip(now)
            return
        self._outcomes.append(False)
        if len(self._outcomes) >= self.policy.min_samples:
            failures = sum(1 for ok in self._outcomes if not ok)
            if failures / len(self._outcomes) >= self.policy.failure_threshold:
                self._trip(now)

    def abandon(self, now: float) -> None:
        """A request admitted as a half-open probe died before producing
        an outcome (queue expiry, brownout drain, gateway crash): release
        the probe slot without counting success or failure."""
        if self.state is BreakerState.HALF_OPEN:
            self._probes_inflight = max(0, self._probes_inflight - 1)

    def _trip(self, now: float) -> None:
        self.state = BreakerState.OPEN
        self._open_until = now + self.policy.cooldown
        self._outcomes.clear()
        self.trips += 1

    @property
    def open(self) -> bool:
        return self.state is BreakerState.OPEN


@dataclass(frozen=True)
class BrownoutPolicy:
    """Graceful-degradation watermarks over deployment-wide gateway load.

    Load is the occupancy fraction of the gateway's shared capacity
    (dispatch slots + class queues).  Level ``k`` (1-based) engages when
    load crosses ``watermarks[k-1]`` and sheds the ``k`` lowest-priority
    QoS classes; it releases only when load falls ``hysteresis`` below
    the engaging watermark, so the controller cannot flap around a
    boundary.  The highest class is never shed by brownout — overload
    beyond the last watermark still bounds it via the queues themselves.
    """

    watermarks: Tuple[float, ...] = (0.60, 0.85)
    hysteresis: float = 0.10

    def __post_init__(self) -> None:
        if list(self.watermarks) != sorted(self.watermarks):
            raise PolicyError("brownout watermarks must be ascending")
        if len(self.watermarks) >= len(QOS_LADDER):
            raise PolicyError(
                "need fewer watermarks than QoS classes (the top class "
                "is never shed)"
            )


@dataclass
class BrownoutController:
    """Tracks the current brownout level from observed load."""

    policy: BrownoutPolicy = field(default_factory=BrownoutPolicy)
    level: int = 0
    #: (time, old_level, new_level) transitions for reports.
    transitions: RingBuffer = field(
        default_factory=lambda: RingBuffer(TRANSITIONS_KEPT)
    )

    def update(self, load: float, now: float) -> int:
        """Re-evaluate the level for ``load``; returns the new level."""
        marks = self.policy.watermarks
        target = 0
        for i, mark in enumerate(marks):
            if load >= mark:
                target = i + 1
        if target > self.level:
            self.transitions.append((now, self.level, target))
            self.level = target
        elif target < self.level:
            # Hysteresis: only step down once load clears the engaging
            # watermark by the hysteresis margin.
            release = marks[self.level - 1] - self.policy.hysteresis
            if load < release:
                new = target
                self.transitions.append((now, self.level, new))
                self.level = new
        return self.level

    def sheds(self, qos_class: str) -> bool:
        """Is ``qos_class`` currently being shed?"""
        if self.level <= 0:
            return False
        if qos_class not in QOS_LADDER:
            return True  # unknown classes rank below everything listed
        return QOS_LADDER.index(qos_class) >= len(QOS_LADDER) - self.level
