"""The online autotuner: measurement-driven strategy selection.

The tuner subscribes to every finished collective (via
:meth:`ServiceCommunicator.add_completion_listener`), attributes the
measured duration to the strategy signature that executed it (the
instance's ``launch_strategy``, which every rank launched under — an
inconsistent instance is not measured), and feeds a bounded-exploration
bandit per ``(kind, world, size-bucket)``.  When the bandit's choice
differs from the communicator's current strategy, the tuner applies the
change **live through the §4.2 reconfiguration barrier** —
``barrier_enabled=True``, always — so the tenant is never interrupted and
co-tenants see zero blast radius.

Arms are seeded from the offline planner's ranked candidates, plus the
strategy the communicator is running.

The tuner keeps one state per *live* communicator: destroying one drops
its state (:meth:`AutoTuner.detach`), so the per-comm counts
(``retunes_applied()``, ``epoch_retunes()``) sum over live communicators,
and the metric series keep the history.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from ..netsim.errors import ReconfigurationError
from .bandit import TIE_TOLERANCE, UcbBandit
from .planner import Signature, StrategyPlanner

if TYPE_CHECKING:  # pragma: no cover - import cycle broken for type hints
    from ..core.communicator import CollectiveInstance, ServiceCommunicator
    from ..core.deployment import MccsDeployment

#: One bandit instance per (collective kind, world size, size bucket).
BucketKey = Tuple[str, int, int]


def size_bucket(nbytes: int) -> int:
    """Power-of-two bucket index: sizes in ``(2^(k-1), 2^k]`` map to ``k``
    (the Figure 6 sweep axis)."""
    if nbytes <= 0:
        raise ValueError("size must be positive")
    return int(nbytes - 1).bit_length()


#: Planner candidates admitted as arms per bucket.
MAX_ARMS = 6


@dataclass
class _ArmSpec:
    """What a reconfiguration must install to run one arm (its fields
    start with the arm's :data:`Signature`, in order)."""

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
    buckets: Dict[BucketKey, _BucketState] = field(default_factory=dict)
    retune_inflight: bool = False
    retunes_applied: int = 0
    #: Membership epoch awaiting its first applied retune (attribution).
    pending_epoch: Optional[int] = None
    epoch_retunes_applied: int = 0


class AutoTuner:
    """Per-deployment online tuner; attach communicators to start tuning."""

    def __init__(self, deployment: "MccsDeployment") -> None:
        self.deployment = deployment
        self.metrics = deployment.telemetry().metrics
        self.planner = StrategyPlanner(
            deployment.cluster,
            latency=deployment.latency,
            metrics=self.metrics,
        )
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
        state = _CommState(comm=comm)
        self._states[comm.comm_id] = state
        comm.add_completion_listener(
            lambda instance, state=state: self._observe(state, instance)
        )

    def detach(self, comm: "ServiceCommunicator") -> None:
        """Stop tuning ``comm``, which was destroyed: its state, and the
        communicator that state holds, go with it."""
        self._states.pop(comm.comm_id, None)

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

        The old buckets were planned and measured on the previous placement
        (WAN-crossing placements tune completely differently), so drop
        them and attribute the next applied retune to the new epoch.
        """
        state = self._states.get(comm.comm_id)
        if state is None:
            return
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

        # Seed arms: the planner's ranking, and always the strategy
        # currently running on the communicator.
        ranked = self.planner.plan(
            instance.kind, instance.out_bytes, state.comm.gpus
        )
        for scored in ranked[:MAX_ARMS]:
            signature = scored.candidate.signature()
            bucket.arms[signature] = _ArmSpec(
                *signature, scored.predicted_seconds
            )
        current = self._signature_of(state.comm.strategy)
        bucket.arms.setdefault(current, _ArmSpec(*current))
        return bucket

    def _observe(
        self, state: _CommState, instance: "CollectiveInstance"
    ) -> None:
        if instance.aborted or instance.end_time is None:
            return
        if not instance.consistent or not instance.rank_versions:
            return
        duration = instance.duration()
        bucket = self._ensure_bucket(state, instance)
        signature = self._signature_of(instance.launch_strategy)
        bucket.arms.setdefault(signature, _ArmSpec(*signature))
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
        bandit = bucket.bandit
        choice = bandit.select(list(bucket.arms))
        current = self._signature_of(state.comm.strategy)
        if choice == current:
            return
        running, chosen = bandit.mean(current), bandit.mean(choice)
        if (
            running is not None
            and chosen is not None
            and abs(running - chosen) <= TIE_TOLERANCE * chosen
        ):
            return  # a tie: the barrier would gain nothing
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
