"""Cost-model + measurement-driven strategy autotuning.

Two halves, matching how a provider would actually run this:

* **Offline planner** (:class:`StrategyPlanner`) — enumerate candidate
  strategies (algorithm family including ``halving_doubling``, channel
  count, ring order) and score each with what a launch is charged in
  simulation: the fixed latency of its steps plus the busiest resource's
  serial time on the placement.
* **Online tuner** (:class:`AutoTuner`) — consume measured per-collective
  durations, run a bounded-exploration bandit per bucket, and apply every
  strategy change live through the §4.2 reconfiguration barrier.

Enable with ``MccsDeployment.enable_autotuning()``; see
``docs/autotuning.md`` for the full walkthrough.
"""

from .bandit import ArmStats, UcbBandit
from .cost import (
    bottleneck_seconds,
    estimate_seconds,
    pair_traffic,
    topology_fingerprint,
)
from .planner import (
    Candidate,
    ScoredCandidate,
    StrategyPlanner,
    canonical_ring,
)
from .tuner import AutoTuner, size_bucket

__all__ = [
    "ArmStats",
    "AutoTuner",
    "Candidate",
    "ScoredCandidate",
    "StrategyPlanner",
    "UcbBandit",
    "bottleneck_seconds",
    "canonical_ring",
    "estimate_seconds",
    "pair_traffic",
    "size_bucket",
    "topology_fingerprint",
]
