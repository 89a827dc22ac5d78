"""The bounded-exploration bandit over strategy arms.

Arms are runtime strategy signatures; rewards are *costs* (measured
collective durations, lower is better).  :class:`UcbBandit` — optimistic
lower-confidence-bound selection (UCB1 adapted to cost minimization,
scale-free via the running mean) — spends a bounded exploration budget and
then turns purely greedy, so a tenant is never subjected to unbounded
experimentation: every exploratory pull is one collective executed under
a possibly-suboptimal (but always correct) strategy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence

#: Confidence-width scale of the optimistic bound.
UCB_C = 0.5
#: Exploratory pulls per bandit; once spent, selection is purely greedy.
EXPLORATION_BUDGET = 12


@dataclass
class ArmStats:
    pulls: int = 0
    total_cost: float = 0.0

    @property
    def mean(self) -> float:
        return self.total_cost / self.pulls if self.pulls else math.inf

    def observe(self, cost: float) -> None:
        self.pulls += 1
        self.total_cost += cost


@dataclass
class BanditState:
    """Per-arm stats + the exploration ledger."""

    arms: Dict[Hashable, ArmStats] = field(default_factory=dict)
    exploration_spent: int = 0
    total_pulls: int = 0

    def stats(self, arm: Hashable) -> ArmStats:
        stats = self.arms.get(arm)
        if stats is None:
            stats = self.arms[arm] = ArmStats()
        return stats


class UcbBandit:
    """UCB1 for costs: pick the arm with the lowest optimistic bound.

    The confidence width is scaled by the arm's own mean so the policy is
    invariant to the absolute duration scale (microseconds vs seconds).
    """

    def __init__(self) -> None:
        self.state = BanditState()

    def observe(self, arm: Hashable, cost: float) -> None:
        if cost < 0:
            raise ValueError("cost must be non-negative")
        self.state.stats(arm).observe(cost)
        self.state.total_pulls += 1

    def mean(self, arm: Hashable) -> Optional[float]:
        stats = self.state.arms.get(arm)
        if stats is None or stats.pulls == 0:
            return None
        return stats.mean

    def best_arm(self, arms: Sequence[Hashable]) -> Hashable:
        """Pure exploitation: lowest observed mean (unpulled arms last)."""
        return min(arms, key=lambda a: (self.state.stats(a).mean, str(a)))

    def _unpulled(self, arms: Sequence[Hashable]) -> List[Hashable]:
        return [a for a in arms if self.state.stats(a).pulls == 0]

    @property
    def exploration_exhausted(self) -> bool:
        return self.state.exploration_spent >= EXPLORATION_BUDGET

    def select(self, arms: Sequence[Hashable]) -> Hashable:
        if not arms:
            raise ValueError("no arms to select from")
        unpulled = self._unpulled(arms)
        if unpulled and not self.exploration_exhausted:
            self.state.exploration_spent += 1
            return unpulled[0]
        if self.exploration_exhausted:
            return self.best_arm(arms)
        total = max(1, self.state.total_pulls)

        def bound(arm: Hashable) -> float:
            stats = self.state.stats(arm)
            if stats.pulls == 0:
                return -math.inf  # optimism for never-tried arms
            width = UCB_C * stats.mean * math.sqrt(
                2.0 * math.log(total) / stats.pulls
            )
            return stats.mean - width

        choice = min(arms, key=lambda a: (bound(a), str(a)))
        if choice != self.best_arm(arms):
            self.state.exploration_spent += 1
        return choice
