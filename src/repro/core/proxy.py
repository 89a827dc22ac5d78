"""Proxy engines: per-GPU managers of collective launches (§4.2).

"For each GPU on a given host, MCCS initializes a single proxy engine that
handles all communicators which include that GPU in their ranks."  The
proxy is where the reconfiguration protocol lives: it tracks the sequence
number of the last collective it launched for each communicator, holds
subsequent launches while a reconfiguration barrier is pending, and
switches strategy versions only once the barrier resolves.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Tuple

from ..netsim.errors import HostCrashedError, ReconfigurationError
from ..telemetry.causal import EVENT_HELD
from .communicator import CollectiveInstance, ServiceCommunicator
from .strategy import CollectiveStrategy

if TYPE_CHECKING:  # pragma: no cover - import cycle broken for type hints
    from ..telemetry.hub import TelemetryHub
    from .reconfig import ReconfigSession

CommRankKey = Tuple[int, int]
"""(comm_id, rank)"""


@dataclass
class _RankState:
    """Per-(communicator, rank) launch bookkeeping."""

    strategy: CollectiveStrategy
    launched_seq: int = -1
    holding: bool = False
    pending: Deque[CollectiveInstance] = field(default_factory=deque)
    session: Optional["ReconfigSession"] = None
    catch_up_max: Optional[int] = None
    hold_since: Optional[float] = None


class ProxyEngine:
    """The proxy engine of one GPU.

    The engine handles every communicator whose ranks include its GPU;
    multiple applications sharing the GPU share this engine (§5).
    """

    def __init__(
        self,
        host_id: int,
        gpu_global_id: int,
        telemetry: "TelemetryHub",
    ) -> None:
        self.host_id = host_id
        self.gpu_global_id = gpu_global_id
        self.telemetry = telemetry
        self._ranks: Dict[CommRankKey, _RankState] = {}
        self.launches = 0
        self.reconfigurations = 0
        #: Cleared when the host crashes; dead proxies reject launches,
        #: stop answering heartbeats and never contribute to barriers.
        self.alive = True
        self.error: Optional[BaseException] = None
        self.heartbeats = 0

    # ------------------------------------------------------------------
    # liveness
    # ------------------------------------------------------------------
    def fail(self, error: BaseException) -> None:
        """Kill this proxy (host crash).

        Queued launches fail immediately with ``error`` so their
        collectives surface a typed failure instead of waiting for a
        deadline; any reconfiguration this proxy was holding for is
        dropped (the session's barrier timeout reports it as missing).
        """
        if not self.alive:
            return
        self.alive = False
        self.error = error
        for (comm_id, rank), state in list(self._ranks.items()):
            pending = list(state.pending)
            state.pending.clear()
            state.holding = False
            state.catch_up_max = None
            state.session = None
            state.hold_since = None
            for instance in pending:
                instance.rank_failed(rank, error)

    def heartbeat(self, now: float) -> bool:
        """Answer a liveness probe; dead proxies do not answer."""
        if not self.alive:
            return False
        self.heartbeats += 1
        return True

    def _death_error(self) -> BaseException:
        if self.error is not None:
            return self.error
        return HostCrashedError(
            f"proxy of GPU {self.gpu_global_id} on host {self.host_id} is dead"
        )

    # ------------------------------------------------------------------
    def register(self, comm: ServiceCommunicator, rank: int) -> None:
        """Adopt rank ``rank`` of ``comm`` (called at communicator init)."""
        gpu = comm.gpus[rank]
        if gpu.global_id != self.gpu_global_id:
            raise ValueError(
                f"rank {rank} of comm {comm.comm_id} is on GPU "
                f"{gpu.global_id}, not {self.gpu_global_id}"
            )
        self._ranks[(comm.comm_id, rank)] = _RankState(strategy=comm.strategy)

    def unregister(self, comm: ServiceCommunicator, rank: int) -> None:
        self._ranks.pop((comm.comm_id, rank), None)

    def ranks(self) -> List[CommRankKey]:
        """Every (comm_id, rank) this engine serves."""
        return list(self._ranks)

    def adopt_ranks(self, other: "ProxyEngine") -> None:
        """Take over ``other``'s per-rank state *by reference* (live
        upgrade): a barrier session still holding the old engine mutates
        the same :class:`_RankState` entries this engine now serves."""
        self._ranks = other._ranks

    def handles(self, comm_id: int, rank: int) -> bool:
        return (comm_id, rank) in self._ranks

    def state(self, comm_id: int, rank: int) -> _RankState:
        try:
            return self._ranks[(comm_id, rank)]
        except KeyError:
            raise KeyError(
                f"proxy of GPU {self.gpu_global_id} does not handle "
                f"rank {rank} of comm {comm_id}"
            ) from None

    def launched_seq(self, comm_id: int, rank: int) -> int:
        return self.state(comm_id, rank).launched_seq

    # ------------------------------------------------------------------
    # data path
    # ------------------------------------------------------------------
    def request_launch(self, rank: int, instance: CollectiveInstance) -> None:
        """Deliver a collective to this proxy for ``rank``.

        Launched immediately under the proxy's current strategy unless a
        reconfiguration barrier is pending, in which case the instance is
        queued ("after receiving a reconfiguration request, each proxy
        enqueues all subsequent collectives").  A proxy whose barrier has
        already resolved but that is still behind ``max_seq`` launches
        pre-barrier sequence numbers under the old strategy (catch-up).
        """
        if not self.alive:
            instance.rank_failed(rank, self._death_error())
            return
        state = self.state(instance.comm.comm_id, rank)
        if not state.holding:
            self._launch(state, rank, instance)
            return
        if (
            state.catch_up_max is not None
            and instance.seq <= state.catch_up_max
        ):
            self._launch(state, rank, instance, allow_holding=True)
            if state.launched_seq >= state.catch_up_max:
                self._apply(state, rank)
            return
        instance.annotate(EVENT_HELD, rank=rank, gpu=self.gpu_global_id)
        self.telemetry.metrics.counter(
            "mccs_launches_held_total",
            "Collective launches queued behind a reconfiguration barrier.",
        ).inc(comm=f"comm{instance.comm.comm_id}")
        state.pending.append(instance)

    def _launch(
        self,
        state: _RankState,
        rank: int,
        instance: CollectiveInstance,
        allow_holding: bool = False,
    ) -> None:
        if state.holding and not allow_holding:
            raise ReconfigurationError("launch attempted while holding")
        if instance.seq != state.launched_seq + 1:
            raise ReconfigurationError(
                f"proxy launch out of order: seq {instance.seq} after "
                f"{state.launched_seq} (comm {instance.comm.comm_id}, rank {rank})"
            )
        state.launched_seq = instance.seq
        if instance.aborted:
            # The sequence number is consumed (keeping the ordering
            # invariant for later collectives) but no traffic is injected.
            return
        self.launches += 1
        instance.rank_launch(rank, state.strategy)

    def relaunch(self, rank: int, instance: CollectiveInstance) -> None:
        """Re-launch a collective this proxy already launched once.

        Used by failure recovery after :meth:`CollectiveInstance.reset_for_retry`:
        the sequence number was consumed on the first attempt, so the
        ordering check of :meth:`_launch` does not apply — but only for
        sequence numbers at or below the launch cursor, which is what makes
        this safe.
        """
        if not self.alive:
            instance.rank_failed(rank, self._death_error())
            return
        state = self.state(instance.comm.comm_id, rank)
        if instance.seq > state.launched_seq:
            raise ReconfigurationError(
                f"relaunch of seq {instance.seq} that was never launched "
                f"(cursor {state.launched_seq})"
            )
        if instance.aborted:
            return
        self.launches += 1
        instance.rank_launch(rank, state.strategy)

    # ------------------------------------------------------------------
    # reconfiguration protocol (Figure 4)
    # ------------------------------------------------------------------
    def receive_reconfig(self, rank: int, session: "ReconfigSession") -> None:
        """Handle a reconfiguration request arriving at this proxy.

        With the barrier enabled, the proxy stalls subsequent launches and
        contributes its last-launched sequence number to the control-ring
        AllGather.  With the barrier disabled (the broken protocol on the
        left of Figure 4), it applies the update immediately — which the
        consistency checker catches when ranks end up disagreeing.
        """
        if not self.alive:
            # A dead proxy never contributes; the session's barrier
            # timeout names this rank as missing.
            return
        state = self.state(session.comm.comm_id, rank)
        if state.session is not None:
            raise ReconfigurationError(
                f"rank {rank} of comm {session.comm.comm_id} already has a "
                "reconfiguration in progress"
            )
        state.session = session
        if session.barrier_enabled:
            state.holding = True
            state.hold_since = session.comm.sim.now
            session.contribute(rank, state.launched_seq)
        else:
            state.strategy = session.new_strategy
            state.session = None
            self.reconfigurations += 1
            session.mark_applied(rank)

    def barrier_resolved(
        self, rank: int, session: "ReconfigSession", max_seq: int
    ) -> None:
        """Apply the update once the AllGather resolved to ``max_seq``.

        Queued collectives with sequence numbers up to ``max_seq`` are
        launched under the *old* strategy first (another rank already
        launched them), then the strategy switches, then the rest of the
        queue drains under the new one.
        """
        if not self.alive:
            return
        state = self.state(session.comm.comm_id, rank)
        if state.session is not session or not state.holding:
            raise ReconfigurationError(
                f"barrier resolved for rank {rank} that was not holding"
            )
        while state.pending and state.pending[0].seq <= max_seq:
            self._launch(state, rank, state.pending.popleft(), allow_holding=True)
        if state.launched_seq < max_seq:
            # The pre-barrier collectives have not reached this proxy yet
            # (they are upstream on the communicator stream): stay holding
            # and catch up as they arrive.
            state.catch_up_max = max_seq
            return
        self._apply(state, rank)

    def _apply(self, state: _RankState, rank: int) -> None:
        session = state.session
        if session is None:
            raise ReconfigurationError("apply without an active session")
        if state.hold_since is not None:
            self.telemetry.metrics.histogram(
                "mccs_proxy_hold_seconds",
                "Per-rank time spent holding launches during reconfiguration.",
            ).observe(session.comm.sim.now - state.hold_since)
        state.strategy = session.new_strategy
        state.holding = False
        state.catch_up_max = None
        state.session = None
        state.hold_since = None
        self.reconfigurations += 1
        session.mark_applied(rank)
        while state.pending:
            self._launch(state, rank, state.pending.popleft())

    def abort_reconfig(self, rank: int, session: "ReconfigSession") -> None:
        """Tear down a timed-out reconfiguration session for ``rank``.

        The proxy keeps its *old* strategy, stops holding, and drains the
        launches it queued behind the barrier — if their paths are broken
        they fail with a typed error during injection and failure recovery
        takes over from there.
        """
        if not self.alive:
            return
        state = self._ranks.get((session.comm.comm_id, rank))
        if state is None or state.session is not session:
            return
        state.session = None
        state.holding = False
        state.catch_up_max = None
        state.hold_since = None
        while state.pending:
            self._launch(state, rank, state.pending.popleft())
