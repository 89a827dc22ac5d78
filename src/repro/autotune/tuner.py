"""The online autotuner: measurement-driven strategy selection.

The tuner subscribes to every finished collective (via
:meth:`ServiceCommunicator.add_completion_listener`), attributes the
measured duration to the strategy signature that executed it (through
``instance.rank_versions`` and the communicator's ``strategy_history``),
and feeds a bounded-exploration bandit per ``(kind, world, size-bucket)``.
When the bandit's choice differs from the communicator's current strategy,
the tuner applies the change **live through the §4.2 reconfiguration
barrier** — ``barrier_enabled=True``, always — so the tenant is never
interrupted and co-tenants see zero blast radius.

Arms are seeded from the offline planner's ranked candidates and, when
available, the persisted tuning table (hits/misses are surfaced as
``mccs_autotune_table_{hits,misses}_total``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from ..netsim.errors import ReconfigurationError
from .bandit import UcbBandit
from .cost import topology_fingerprint
from .planner import Signature, StrategyPlanner
from .table import TableEntry, TableKey, TuningTable, size_bucket

if TYPE_CHECKING:  # pragma: no cover - import cycle broken for type hints
    from ..core.communicator import CollectiveInstance, ServiceCommunicator
    from ..core.deployment import MccsDeployment

#: One bandit instance per (collective kind, world size, size bucket).
BucketKey = Tuple[str, int, int]


#: Planner candidates admitted as arms per bucket.
MAX_ARMS = 6


@dataclass
class _ArmSpec:
    """What a reconfiguration must install to run one arm."""

    algorithm: str
    channels: int
    ring: Tuple[int, ...]
    predicted_seconds: float = 0.0


@dataclass
class _BucketState:
    bandit: UcbBandit = field(default_factory=UcbBandit)
    arms: Dict[Signature, _ArmSpec] = field(default_factory=dict)
    baseline: Optional[Signature] = None


@dataclass
class _CommState:
    comm: "ServiceCommunicator"
    fingerprint: str
    buckets: Dict[BucketKey, _BucketState] = field(default_factory=dict)
    retune_inflight: bool = False
    retunes_applied: int = 0
    #: Membership epoch awaiting its first applied retune (attribution).
    pending_epoch: Optional[int] = None
    epoch_retunes_applied: int = 0


class AutoTuner:
    """Per-deployment online tuner; attach communicators to start tuning."""

    def __init__(
        self,
        deployment: "MccsDeployment",
        *,
        table: Optional[TuningTable] = None,
    ) -> None:
        self.deployment = deployment
        self.metrics = deployment.telemetry().metrics
        self.planner = StrategyPlanner(
            deployment.cluster,
            latency=deployment.latency,
            metrics=self.metrics,
        )
        self.table = table if table is not None else TuningTable()
        self._states: Dict[int, _CommState] = {}

        self._observations = self.metrics.counter(
            "mccs_autotune_observations_total",
            "Measured collective durations fed to the autotuner, by comm.",
        )
        self._retunes_applied = self.metrics.counter(
            "mccs_autotune_retunes_applied_total",
            "Strategy changes applied live through the reconfiguration "
            "barrier, by comm and target algorithm.",
        )
        self._retunes_failed = self.metrics.counter(
            "mccs_autotune_retunes_failed_total",
            "Autotuner reconfigurations that failed or were rejected.",
        )
        self._table_hits = self.metrics.counter(
            "mccs_autotune_table_hits_total",
            "Tuning-table lookups that found a planned entry.",
        )
        self._table_misses = self.metrics.counter(
            "mccs_autotune_table_misses_total",
            "Tuning-table lookups that fell back to online planning.",
        )
        self._gain = self.metrics.gauge(
            "mccs_autotune_gain_seconds",
            "Per-bucket estimated gain: baseline arm mean minus best arm "
            "mean (positive = tuner found a faster strategy).",
        )
        self._regret = self.metrics.counter(
            "mccs_autotune_regret_seconds_total",
            "Cumulative estimated regret: observed duration minus the "
            "bucket's best known mean, by comm.",
        )
        self._epoch_retunes = self.metrics.counter(
            "mccs_autotune_epoch_retunes_total",
            "Retunes applied and attributed to a membership epoch change "
            "(the first retune after an elastic grow/shrink), by comm.",
        )

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def attach(self, comm: "ServiceCommunicator") -> None:
        """Start tuning ``comm`` (idempotent)."""
        if comm.comm_id in self._states:
            return
        state = _CommState(
            comm=comm,
            fingerprint=topology_fingerprint(
                self.deployment.cluster, comm.gpus
            ),
        )
        self._states[comm.comm_id] = state
        comm.add_completion_listener(
            lambda instance, state=state: self._observe(state, instance)
        )

    def attached_comms(self) -> Tuple[int, ...]:
        return tuple(sorted(self._states))

    def retunes_applied(self, comm_id: Optional[int] = None) -> int:
        if comm_id is not None:
            state = self._states.get(comm_id)
            return state.retunes_applied if state else 0
        return sum(s.retunes_applied for s in self._states.values())

    def epoch_retunes(self, comm_id: Optional[int] = None) -> int:
        """Retunes applied and attributed to a membership epoch change."""
        if comm_id is not None:
            state = self._states.get(comm_id)
            return state.epoch_retunes_applied if state else 0
        return sum(s.epoch_retunes_applied for s in self._states.values())

    def membership_changed(self, comm: "ServiceCommunicator") -> None:
        """Elastic-coordinator notification: ``comm``'s rank set changed.

        The old buckets keyed on the previous world size and the old
        placement fingerprint are useless (WAN-crossing placements tune
        completely differently), so drop them, recompute the fingerprint,
        and attribute the next applied retune to the new epoch.
        """
        state = self._states.get(comm.comm_id)
        if state is None:
            return
        state.fingerprint = topology_fingerprint(
            self.deployment.cluster, comm.gpus
        )
        state.buckets.clear()
        state.retune_inflight = False
        state.pending_epoch = comm.membership_epoch

    # ------------------------------------------------------------------
    # measurement path
    # ------------------------------------------------------------------
    @staticmethod
    def _signature_of(strategy) -> Signature:
        return (
            strategy.algorithm,
            strategy.channels,
            tuple(strategy.ring.order),
        )

    def _bucket_key(self, instance: "CollectiveInstance") -> BucketKey:
        return (
            instance.kind.value,
            instance.world,
            size_bucket(instance.out_bytes),
        )

    def _ensure_bucket(
        self, state: _CommState, instance: "CollectiveInstance"
    ) -> _BucketState:
        key = self._bucket_key(instance)
        bucket = state.buckets.get(key)
        if bucket is not None:
            return bucket
        bucket = state.buckets[key] = _BucketState()

        # Seed arms: planner ranking first, then the table's pick (if any),
        # and always the strategy currently running on the communicator.
        ranked = self.planner.plan(
            instance.kind, instance.out_bytes, state.comm.gpus
        )
        for scored in ranked[:MAX_ARMS]:
            candidate = scored.candidate
            bucket.arms[candidate.signature()] = _ArmSpec(
                algorithm=candidate.algorithm,
                channels=candidate.channels,
                ring=candidate.ring,
                predicted_seconds=scored.predicted_seconds,
            )
        entry = self.table.lookup(
            instance.kind.value,
            instance.world,
            instance.out_bytes,
            state.fingerprint,
        )
        if entry is not None:
            self._table_hits.inc(comm=f"comm{state.comm.comm_id}")
            bucket.arms.setdefault(
                entry.signature(),
                _ArmSpec(
                    algorithm=entry.algorithm,
                    channels=entry.channels,
                    ring=entry.ring,
                    predicted_seconds=entry.predicted_seconds,
                ),
            )
        else:
            self._table_misses.inc(comm=f"comm{state.comm.comm_id}")
            winner = ranked[0]
            self.table.put(
                TableKey(
                    kind=instance.kind.value,
                    world=instance.world,
                    bucket=size_bucket(instance.out_bytes),
                    fingerprint=state.fingerprint,
                ),
                TableEntry(
                    algorithm=winner.candidate.algorithm,
                    channels=winner.candidate.channels,
                    ring=winner.candidate.ring,
                    chunk_bytes=winner.candidate.chunk_bytes,
                    predicted_seconds=winner.predicted_seconds,
                    candidates_evaluated=len(ranked),
                ),
            )
        current = self._signature_of(state.comm.strategy)
        bucket.arms.setdefault(
            current,
            _ArmSpec(
                algorithm=state.comm.strategy.algorithm,
                channels=state.comm.strategy.channels,
                ring=tuple(state.comm.strategy.ring.order),
            ),
        )
        return bucket

    def _observe(
        self, state: _CommState, instance: "CollectiveInstance"
    ) -> None:
        if instance.aborted or instance.end_time is None:
            return
        if not instance.consistent or not instance.rank_versions:
            return
        version = next(iter(instance.rank_versions.values()))
        strategy = state.comm.strategy_history.get(version)
        if strategy is None:
            return
        duration = instance.duration()
        bucket = self._ensure_bucket(state, instance)
        signature = self._signature_of(strategy)
        bucket.arms.setdefault(
            signature,
            _ArmSpec(
                algorithm=strategy.algorithm,
                channels=strategy.channels,
                ring=tuple(strategy.ring.order),
            ),
        )
        if bucket.baseline is None:
            bucket.baseline = signature
        bucket.bandit.observe(signature, duration)
        comm_label = f"comm{state.comm.comm_id}"
        self._observations.inc(comm=comm_label)
        self._publish_estimates(state, bucket, duration, comm_label)
        self._maybe_retune(state, instance, bucket)

    def _publish_estimates(
        self,
        state: _CommState,
        bucket: _BucketState,
        duration: float,
        comm_label: str,
    ) -> None:
        arms = list(bucket.arms)
        best = bucket.bandit.best_arm(arms)
        best_mean = bucket.bandit.mean(best)
        if best_mean is None:
            return
        self._regret.inc(max(0.0, duration - best_mean), comm=comm_label)
        if bucket.baseline is not None:
            baseline_mean = bucket.bandit.mean(bucket.baseline)
            if baseline_mean is not None:
                key = next(
                    k for k, b in state.buckets.items() if b is bucket
                )
                self._gain.set(
                    baseline_mean - best_mean,
                    comm=comm_label,
                    bucket=f"{key[0]}/2^{key[2]}",
                )

    # ------------------------------------------------------------------
    # retuning through the barrier
    # ------------------------------------------------------------------
    def _maybe_retune(
        self,
        state: _CommState,
        instance: "CollectiveInstance",
        bucket: _BucketState,
    ) -> None:
        if state.retune_inflight:
            return
        choice = bucket.bandit.select(list(bucket.arms))
        current = self._signature_of(state.comm.strategy)
        if choice == current:
            return
        self._retune(state, bucket.arms[choice])

    def _retune(self, state: _CommState, spec: _ArmSpec) -> None:
        comm = state.comm
        # Route pins are keyed (src, dst, channel); shrinking the channel
        # count would orphan high-channel pins, so clear them and let the
        # controller's flow policy re-pin on the new shape.
        routes = (
            {}
            if spec.channels < comm.strategy.channels
            and comm.strategy.route_ids
            else None
        )

        def done(session) -> None:
            state.retune_inflight = False
            state.retunes_applied += 1
            self._retunes_applied.inc(
                comm=f"comm{comm.comm_id}", algorithm=spec.algorithm
            )
            if state.pending_epoch is not None:
                state.epoch_retunes_applied += 1
                self._epoch_retunes.inc(
                    comm=f"comm{comm.comm_id}",
                    epoch=str(state.pending_epoch),
                )
                state.pending_epoch = None

        def failed(session) -> None:
            state.retune_inflight = False
            self._retunes_failed.inc(comm=f"comm{comm.comm_id}")

        state.retune_inflight = True
        try:
            self.deployment.reconfigure(
                comm.comm_id,
                ring=spec.ring,
                channels=spec.channels,
                algorithm=spec.algorithm,
                barrier_enabled=True,  # §4.2: never bypass the barrier
                routes=routes,
                on_done=done,
                on_failed=failed,
            )
        except ReconfigurationError:
            # Another controller policy is mid-reconfiguration on this
            # communicator; skip this round and try again later.
            state.retune_inflight = False
            self._retunes_failed.inc(comm=f"comm{comm.comm_id}")
