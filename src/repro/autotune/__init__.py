"""Cost-model + measurement-driven strategy autotuning.

Two halves, matching how a provider would actually run this:

* **Offline planner** (:class:`StrategyPlanner`) — enumerate candidate
  strategies (algorithm family including ``halving_doubling``, channel
  count, ring order, chunk size), score them with the alpha-beta model
  plus topology-aware bottleneck estimates, and persist the winners in a
  JSON :class:`TuningTable` keyed by (kind, world, size bucket, topology
  fingerprint).
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
    pipelined_seconds,
    topology_fingerprint,
    wan_rtt_seconds,
)
from .planner import (
    Candidate,
    ScoredCandidate,
    StrategyPlanner,
    canonical_ring,
)
from .table import (
    TABLE_FORMAT_VERSION,
    TableEntry,
    TableKey,
    TuningTable,
    size_bucket,
)
from .tuner import AutoTuner

__all__ = [
    "ArmStats",
    "AutoTuner",
    "Candidate",
    "ScoredCandidate",
    "StrategyPlanner",
    "TABLE_FORMAT_VERSION",
    "TableEntry",
    "TableKey",
    "TuningTable",
    "UcbBandit",
    "bottleneck_seconds",
    "canonical_ring",
    "estimate_seconds",
    "pair_traffic",
    "pipelined_seconds",
    "size_bucket",
    "topology_fingerprint",
    "wan_rtt_seconds",
]
