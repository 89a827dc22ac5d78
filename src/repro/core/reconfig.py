"""The dynamic reconfiguration barrier protocol (§4.2, Figure 4).

Reconfiguration must not require "expensive synchronization operations on
the fast path": in the absence of a request there is zero overhead, and
when a request is issued the proxies agree on a cut of the collective
sequence via an AllGather on the per-communicator control ring:

1. the provider's command reaches each rank's proxy after an arbitrary
   delay;
2. on receipt, a proxy queues subsequent collectives and contributes the
   sequence number of the last collective it *launched*;
3. when every proxy has contributed, the AllGather completes (modelled as
   one control-ring round-trip latency) and everyone learns
   ``max_seq = max(contributions)``;
4. each proxy launches queued collectives with ``seq <= max_seq`` under
   the old configuration, applies the update (tearing down and
   re-establishing peer connections), and resumes with the new one.

:class:`ReconfigSession` owns one such request's lifecycle;
:class:`ControlBarrier` is the AllGather.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Set

from ..netsim.engine import FlowSimulator
from ..netsim.errors import ReconfigurationError
from ..telemetry.causal import EVENT_BARRIER_RESOLVED, EVENT_RANK_APPLIED
from ..telemetry.ringbuffer import RingBuffer
from .communicator import ServiceCommunicator
from .strategy import CollectiveStrategy

if TYPE_CHECKING:  # pragma: no cover
    from ..telemetry.hub import TelemetryHub
    from .proxy import ProxyEngine

#: One AllGather round on the TCP/IP control ring.  The paper reports
#: sub-millisecond schedule computation and "rather small" reconfiguration
#: overhead; a control round-trip in the 100 us range matches a
#: host-crossing TCP exchange.
DEFAULT_CONTROL_RING_LATENCY = 100e-6

#: Sessions :attr:`ReconfigManager.sessions` keeps, newest last (readers
#: audit one communicator's tuned run: a few dozen).
SESSIONS_KEPT = 256


class ControlBarrier:
    """AllGather of launched-sequence numbers over the control ring."""

    def __init__(
        self,
        sim: FlowSimulator,
        world: int,
        latency: float,
        on_resolve: Callable[[int], None],
    ) -> None:
        self.sim = sim
        self.world = world
        self.latency = latency
        self._on_resolve = on_resolve
        self.contributions: Dict[int, int] = {}
        self.resolved = False
        self.max_seq: Optional[int] = None

    def contribute(self, rank: int, launched_seq: int) -> None:
        if self.resolved:
            raise ReconfigurationError("late contribution to resolved barrier")
        if rank in self.contributions:
            raise ReconfigurationError(f"rank {rank} contributed twice")
        self.contributions[rank] = launched_seq
        if len(self.contributions) == self.world:
            self.max_seq = max(self.contributions.values())
            self.sim.call_in(self.latency, self._resolve)

    def _resolve(self) -> None:
        self.resolved = True
        assert self.max_seq is not None
        on_resolve, self._on_resolve = self._on_resolve, None
        on_resolve(self.max_seq)


class ReconfigSession:
    """One reconfiguration request's lifecycle across all rank proxies.

    ``session_id`` is issued by the :class:`ReconfigManager`."""

    def __init__(
        self,
        session_id: int,
        comm: ServiceCommunicator,
        new_strategy: CollectiveStrategy,
        proxies: Sequence["ProxyEngine"],
        telemetry: "TelemetryHub",
        *,
        barrier_enabled: bool = True,
        barrier_timeout: Optional[float] = None,
        on_done: Optional[Callable[["ReconfigSession"], None]] = None,
        on_failed: Optional[Callable[["ReconfigSession"], None]] = None,
    ) -> None:
        if new_strategy.version <= comm.strategy.version:
            raise ReconfigurationError(
                "new strategy version must exceed the current one "
                f"({new_strategy.version} <= {comm.strategy.version})"
            )
        self.session_id = session_id
        self.comm = comm
        self.new_strategy = new_strategy
        self.proxies = list(proxies)
        self.barrier_enabled = barrier_enabled
        self.issue_time = comm.sim.now
        self.resolve_time: Optional[float] = None
        self.done_time: Optional[float] = None
        self._applied: Set[int] = set()
        self._on_done = on_done
        self._on_failed = on_failed
        self.barrier = ControlBarrier(
            comm.sim,
            comm.world,
            DEFAULT_CONTROL_RING_LATENCY,
            self._barrier_resolved,
        )
        self.max_seq: Optional[int] = None
        self.barrier_timeout = barrier_timeout
        self.failed = False
        self.error: Optional[ReconfigurationError] = None
        if barrier_enabled and barrier_timeout is not None:
            if barrier_timeout <= 0:
                raise ReconfigurationError("barrier timeout must be positive")
            comm.sim.call_in(barrier_timeout, self._check_timeout)
        self.telemetry = telemetry
        attrs = {"app": comm.app_id, "comm": f"comm{comm.comm_id}"}
        self.span = telemetry.spans.begin(
            f"reconfig comm{comm.comm_id} "
            f"v{comm.strategy.version}->v{new_strategy.version}",
            self.issue_time,
            category="reconfig",
            session=self.session_id,
            barrier_enabled=barrier_enabled,
            **attrs,
        )
        self._barrier_span = None
        if barrier_enabled:
            # The Figure 4 stall: command issue to AllGather resolution.
            self._barrier_span = telemetry.spans.begin(
                "barrier", self.issue_time, category="reconfig",
                parent=self.span, **attrs,
            )
        telemetry.events.log(
            self.issue_time,
            "reconfig_issued",
            f"comm{comm.comm_id} -> v{new_strategy.version}",
            comm=comm.comm_id,
            version=new_strategy.version,
            barrier=barrier_enabled,
        )
        telemetry.metrics.counter(
            "mccs_reconfigs_total",
            "Reconfiguration commands issued, by communicator.",
        ).inc(comm=f"comm{comm.comm_id}")

    # ------------------------------------------------------------------
    def deliver(self, rank: int, delay: float) -> None:
        """Schedule delivery of the request to ``rank``'s proxy."""

        def arrive() -> None:
            if self.failed:
                return  # delivered after the barrier timed out: drop it
            self.proxies[rank].receive_reconfig(rank, self)

        self.comm.sim.call_in(delay, arrive)

    def contribute(self, rank: int, launched_seq: int) -> None:
        if self.failed:
            return
        self.barrier.contribute(rank, launched_seq)

    def _check_timeout(self) -> None:
        """Fail the session if the AllGather has not resolved in time.

        Every rank that never contributed (dead proxy, lost delivery) is
        named in the error; proxies that *did* stall behind the barrier
        are released under their old strategy so the communicator does not
        hang.  With an ``on_failed`` handler (failure recovery) the error
        is delivered there; without one it is raised, which propagates out
        of :meth:`FlowSimulator.run`.
        """
        if self.failed or self.done or self.barrier.resolved:
            return
        missing = sorted(
            rank for rank in range(self.comm.world)
            if rank not in self.barrier.contributions
        )
        self.failed = True
        self.error = ReconfigurationError(
            f"reconfiguration barrier for comm {self.comm.comm_id} timed out "
            f"after {self.barrier_timeout:g}s waiting for rank(s) "
            f"{missing or '(AllGather latency)'}"
        )
        now = self.comm.sim.now
        for rank, proxy in enumerate(self.proxies):
            proxy.abort_reconfig(rank, self)
        if self._barrier_span is not None and not self._barrier_span.finished:
            self._barrier_span.finish(now)
        self.span.mark("barrier_timeout", now, missing=missing)
        self.span.finish(now)
        self.telemetry.metrics.counter(
            "mccs_reconfig_timeouts_total",
            "Reconfiguration barriers abandoned on timeout.",
        ).inc(comm=f"comm{self.comm.comm_id}")
        self.telemetry.events.log(
            now, "reconfig_timeout", str(self.error),
            comm=self.comm.comm_id, missing=missing,
        )
        on_failed, error = self._on_failed, self.error
        self._release()
        if on_failed is not None:
            on_failed(self)
        else:
            raise error

    def _release(self) -> None:
        """The session ended (applied everywhere, or timed out): from here
        on it is a record in :attr:`ReconfigManager.sessions` — timings,
        ``max_seq``, the barrier's contributions, the error — and lets go
        of the machinery, so it pins neither the communicator (which the
        tenant may destroy next) nor the proxies nor the callbacks, nor its
        spans (finished by now; the hub's ring is their only owner)."""
        self.comm = None
        self.proxies = []
        self._on_done = self._on_failed = None
        self.span = self._barrier_span = None

    def _barrier_resolved(self, max_seq: int) -> None:
        if self.failed:
            return
        self.max_seq = max_seq
        self.resolve_time = self.comm.sim.now
        self.span.mark(
            EVENT_BARRIER_RESOLVED, self.resolve_time, max_seq=max_seq
        )
        if self._barrier_span is not None:
            self._barrier_span.finish(self.resolve_time)
        self.telemetry.metrics.histogram(
            "mccs_barrier_stall_seconds",
            "Reconfiguration barrier stall (issue to AllGather resolve).",
        ).observe(self.resolve_time - self.issue_time)
        # The barrier pass stalled every collective in flight on this
        # communicator: say so on each one's trace.
        for instance in self.comm.inflight.values():
            instance.annotate(
                EVENT_BARRIER_RESOLVED,
                max_seq=max_seq,
                version=self.new_strategy.version,
            )
        # All proxies learn the cut; the communicator adopts the new
        # strategy version so freshly retired connection tables know what
        # "current" means.
        self.comm.commit_strategy(self.new_strategy)
        for rank, proxy in enumerate(self.proxies):
            proxy.barrier_resolved(rank, self, max_seq)

    def mark_applied(self, rank: int) -> None:
        if rank in self._applied:
            raise ReconfigurationError(f"rank {rank} applied update twice")
        self._applied.add(rank)
        if not self.barrier_enabled:
            # broken-protocol mode: commit on first application so that
            # launches under the new version find the strategy registered
            self.comm.commit_strategy(self.new_strategy)
        self.span.mark(EVENT_RANK_APPLIED, self.comm.sim.now, rank=rank)
        if len(self._applied) == self.comm.world:
            self.done_time = self.comm.sim.now
            self.span.finish(self.done_time)
            self.telemetry.metrics.histogram(
                "mccs_reconfig_duration_seconds",
                "Reconfiguration issue-to-applied-everywhere time.",
            ).observe(self.done_time - self.issue_time)
            self.telemetry.events.log(
                self.done_time,
                "reconfig_done",
                f"comm{self.comm.comm_id} at v{self.new_strategy.version}",
                comm=self.comm.comm_id,
                version=self.new_strategy.version,
                duration=self.done_time - self.issue_time,
            )
            on_done = self._on_done
            self._release()
            if on_done is not None:
                on_done(self)

    @property
    def done(self) -> bool:
        return self.done_time is not None


class ReconfigManager:
    """Issues reconfiguration commands on behalf of the provider.

    This is the command interface "made available to the provider (not the
    applications)" (§4.2); the centralized controller calls it with the
    outputs of its policies.
    """

    def __init__(
        self,
        sim: FlowSimulator,
        proxies_of: Callable[[ServiceCommunicator], List["ProxyEngine"]],
        telemetry: "TelemetryHub",
    ) -> None:
        self._sim = sim
        self._proxies_of = proxies_of
        self._telemetry = telemetry
        self._active: Dict[int, ReconfigSession] = {}
        self._session_ids = itertools.count()
        self.sessions: RingBuffer[ReconfigSession] = RingBuffer(SESSIONS_KEPT)

    def reconfigure(
        self,
        comm: ServiceCommunicator,
        new_strategy: CollectiveStrategy,
        *,
        delays: Optional[Sequence[float]] = None,
        barrier_enabled: bool = True,
        barrier_timeout: Optional[float] = None,
        on_done: Optional[Callable[[ReconfigSession], None]] = None,
        on_failed: Optional[Callable[[ReconfigSession], None]] = None,
    ) -> ReconfigSession:
        """Send a reconfiguration request to every rank's proxy.

        Args:
            comm: Target communicator.
            new_strategy: The next strategy (its version must be newer).
            delays: Per-rank delivery delays modelling "arbitrary network
                and processing delays"; defaults to immediate delivery.
            barrier_enabled: Disable only to demonstrate the Figure 4
                hazard; production code always leaves this True.
            barrier_timeout: Give up on the barrier after this long and
                fail the session with a :class:`ReconfigurationError`
                naming the ranks that never contributed.  ``None`` waits
                forever (the pre-fault-tolerance behaviour).
            on_done: Callback once every rank applied the update.
            on_failed: Callback on barrier timeout; without one the
                timeout error is raised out of the simulation loop.
        """
        if comm.comm_id in self._active and not self._active[comm.comm_id].done:
            raise ReconfigurationError(
                f"communicator {comm.comm_id} already reconfiguring"
            )
        proxies = self._proxies_of(comm)
        if len(proxies) != comm.world:
            raise ReconfigurationError("need one proxy per rank")
        if delays is None:
            delays = [0.0] * comm.world
        if len(delays) != comm.world:
            # Checked before the session exists: a session that is never
            # delivered is never done, and would block the communicator.
            raise ReconfigurationError("need one delivery delay per rank")

        def finished(session: ReconfigSession) -> None:
            self._active.pop(comm.comm_id, None)
            if on_done is not None:
                on_done(session)

        def timed_out(session: ReconfigSession) -> None:
            self._active.pop(comm.comm_id, None)
            if on_failed is not None:
                on_failed(session)
            else:
                assert session.error is not None
                raise session.error

        session = ReconfigSession(
            next(self._session_ids),
            comm,
            new_strategy,
            proxies,
            self._telemetry,
            barrier_enabled=barrier_enabled,
            barrier_timeout=barrier_timeout,
            on_done=finished,
            on_failed=timed_out,
        )
        self._active[comm.comm_id] = session
        self.sessions.append(session)
        for rank, delay in enumerate(delays):
            session.deliver(rank, delay)
        return session
