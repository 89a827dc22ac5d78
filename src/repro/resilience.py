"""The one retry word: capped-exponential backoff.

The shim (calls into a restarting host service), the gateway (dispatch
attempts against a down frontend) and failure recovery (repair cycles)
all wait the same way before trying again; each holds its own
:class:`Backoff` numbers and none spells the formula.  Only *transient*
failures are retried — typed decisions and hard errors never are.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

#: The QoS classes, most to least important: admission's overload cap
#: spares the first, gateway brownout sheds from the last.
QOS_LADDER = ("high", "normal", "low")


@dataclass(frozen=True)
class Backoff:
    """``min(base * 2**attempt, cap)``, stretched by up to ``jitter``."""

    base: float = 0.002
    cap: float = 0.05
    #: Each delay is multiplied by ``1 + uniform(0, jitter)`` so a fleet
    #: of retrying callers does not stampede the restarted service.
    jitter: float = 0.5
    #: Attempts after the first before the caller gives up.
    max_retries: int = 8

    def delay(self, attempt: int, rng: Optional[random.Random] = None) -> float:
        """Wait before retry ``attempt`` (0-based): one draw from ``rng``
        per call; without one, no draw and no jitter."""
        delay = min(self.base * 2.0**attempt, self.cap)
        if rng is None:
            return delay
        return delay * (1.0 + self.jitter * rng.random())
