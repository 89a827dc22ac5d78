"""Failure detection and recovery for MCCS communicators.

The MCCS premise is that collective communication is a *managed service*:
when infrastructure fails, the provider — not the tenant — reacts.  This
module is the provider's reaction.  It consumes the typed failure signals
the rest of the stack produces (failed flows, launches hitting a dead
proxy, reconfiguration-barrier timeouts, blown collective deadlines,
missed heartbeats) and drives the existing reconfiguration machinery to
repair the communicator:

1. **Quiesce** — the failed attempt's in-flight window is reset
   (surviving flows cancelled) so nothing races the repair.
2. **Reroute** — a new strategy version with an empty route map is pushed
   through the §4.2 barrier by :meth:`MccsDeployment.drain`; connection
   tables rebuild and ECMP re-selects paths, which now exclude down links.
3. **Relaunch** — after a capped exponential backoff, every reset
   collective is relaunched in sequence order through the proxies.
4. **Shrink** — a lost rank (crashed host, unsupervised dead service)
   cannot be repaired: the in-flight collectives abort typed (waiters
   unblock; co-located tenants are untouched) and
   :meth:`MccsDeployment.change_membership` cuts the same communicator
   over to its survivors.  Fewer than ``MIN_WORLD`` survivors abort it.

Detection that does not ride on the data path lives here too: the
:class:`HeartbeatMonitor` probes every proxy engine on the simulation
clock so a crashed host is noticed even while its communicators are idle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from ..netsim.errors import (
    CollectiveTimeoutError,
    CommunicatorError,
    HeartbeatTimeoutError,
    HostCrashedError,
    LinkDownError,
    NicFailedError,
    NoPathError,
    ReconfigurationError,
    ServiceCrashedError,
    ServiceUnavailableError,
)
from ..resilience import Backoff
from .communicator import CollectiveInstance, ServiceCommunicator
from .elastic import MIN_WORLD

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .deployment import MccsDeployment
    from .proxy import ProxyEngine
    from .reconfig import ReconfigSession


#: Repair attempts per failure episode before the communicator aborts.
MAX_ATTEMPTS = 3
#: Wait before the relaunch of repair attempt ``n`` (or attempt ``n + 1``
#: if its reroute barrier was busy or failed): 5 ms, doubling to the cap.
#: Only base and cap are read (no rng; ``MAX_ATTEMPTS`` bounds).
REPAIR_BACKOFF = Backoff(base=0.005, cap=0.1)
#: Reconfiguration barriers abandon after this long (a dead rank never
#: contributes; without a timeout the repair itself would hang).
BARRIER_TIMEOUT = 0.05
#: Proxy liveness probe period of the :class:`HeartbeatMonitor`.
HEARTBEAT_INTERVAL = 0.01
#: How long a repair episode waits for a crashed *service* to be restarted
#: by the supervisor before giving the communicator up.
RESTART_WAIT = 1.0
#: Poll period while waiting on a pending service restart (the wait
#: consumes no repair attempts — the outage, not the repair, is slow).
RESTART_POLL = 0.01


def fault_kind(error: BaseException) -> str:
    """Telemetry label for a failure's root cause."""
    if isinstance(error, (ServiceCrashedError, ServiceUnavailableError)):
        # Must precede the host-crash arm: ServiceCrashedError subclasses
        # the same FaultError family but the host (and its GPUs) survive.
        return "service_crash"
    if isinstance(error, (HostCrashedError, HeartbeatTimeoutError)):
        return "host_crash"
    if isinstance(error, NicFailedError):
        return "nic_fail"
    if isinstance(error, (LinkDownError, NoPathError)):
        # A partition with no surviving path is the terminal form of
        # link loss; recovery treats both as reroutable network faults.
        return "link_down"
    if isinstance(error, CollectiveTimeoutError):
        return "timeout"
    if isinstance(error, ReconfigurationError):
        return "reconfig"
    return "other"


@dataclass
class _CommRecovery:
    """One failure episode on one communicator (first failure to verdict)."""

    comm: ServiceCommunicator
    started_at: float
    attempt: int = 0
    errors: List[BaseException] = field(default_factory=list)
    cycle_scheduled: bool = False
    retrying: List[CollectiveInstance] = field(default_factory=list)
    kind: str = "other"


class RecoveryManager:
    """Drives repair cycles for every communicator of a deployment.

    Installed as each communicator's ``failure_handler`` (see
    :meth:`MccsDeployment.enable_recovery`).  Failures arriving in the
    same instant coalesce into one cycle via a zero-delay event, which
    also escapes reentrancy — a repair never runs inside the simulator
    callback that reported the failure.
    """

    def __init__(
        self,
        deployment: "MccsDeployment",
        collective_deadline: Optional[float] = 1.0,
    ) -> None:
        self.deployment = deployment
        self.sim = deployment.sim
        #: Per-collective issue-to-completion deadline armed by the
        #: deployment; ``None`` disables the watchdog.
        self.collective_deadline = collective_deadline
        self.telemetry = deployment.telemetry()
        self._cycles: Dict[int, _CommRecovery] = {}

    # ------------------------------------------------------------------
    def attach(self, comm: ServiceCommunicator) -> None:
        comm.failure_handler = self.handle_failure
        comm.add_completion_listener(self._finished)

    def membership_changed(self, comm: ServiceCommunicator) -> None:
        """Cutover notification: ``comm`` grew or shrank.

        Any in-flight repair episode is obsolete — its quiesced window and
        rank bookkeeping referred to the old rank numbering — so the
        episode is dropped; fresh failures on the new membership open a
        fresh one.
        """
        self._cycles.pop(comm.comm_id, None)

    def _log(self, comm: ServiceCommunicator, event: str, detail: str) -> None:
        """Every detection/repair decision is one event in the hub's log."""
        self.telemetry.events.log(
            self.sim.now, event, detail, comm=comm.comm_id, app=comm.app_id
        )

    # ------------------------------------------------------------------
    # failure intake
    # ------------------------------------------------------------------
    def handle_failure(
        self,
        comm: ServiceCommunicator,
        instance: Optional[CollectiveInstance],
        rank: Optional[int],
        error: BaseException,
    ) -> None:
        """Entry point wired into ``ServiceCommunicator.failure_handler``."""
        if comm.aborted or comm.destroyed:
            return
        rec = self._cycles.get(comm.comm_id)
        if rec is None:
            rec = _CommRecovery(comm=comm, started_at=self.sim.now)
            self._cycles[comm.comm_id] = rec
            where = f"seq={instance.seq} " if instance is not None else ""
            self._log(comm, "failure_detected", f"{where}rank={rank}: {error}")
        if instance is not None:
            instance.annotate(
                "failure_detected", rank=rank, error=str(error)
            )
        rec.errors.append(error)
        self._schedule_cycle(rec)

    def proxy_dead(self, proxy: "ProxyEngine") -> None:
        """Heartbeat-monitor callback: a proxy stopped answering."""
        error = HeartbeatTimeoutError(
            f"proxy of GPU {proxy.gpu_global_id} on host {proxy.host_id} "
            "missed its heartbeat"
        )
        for comm_id, rank in proxy.ranks():
            try:
                comm = self.deployment.communicator(comm_id)
            except CommunicatorError:
                continue
            self.handle_failure(comm, None, rank, error)

    # ------------------------------------------------------------------
    # the repair cycle
    # ------------------------------------------------------------------
    def _schedule_cycle(self, rec: _CommRecovery, delay: float = 0.0) -> None:
        if rec.cycle_scheduled:
            return
        rec.cycle_scheduled = True
        self.sim.call_in(delay, lambda: self._run_cycle(rec))

    def _run_cycle(self, rec: _CommRecovery) -> None:
        rec.cycle_scheduled = False
        comm = rec.comm
        if (
            comm.aborted
            or comm.destroyed
            or self._cycles.get(comm.comm_id) is not rec
        ):
            return
        if rec.errors:
            rec.kind = fault_kind(rec.errors[0])
        waiting = self._restarting_hosts(comm)
        if waiting:
            # A crashed service with a pending supervised restart is dark,
            # not dead: hold the episode (consuming no repair attempts)
            # until the service is back or the wait budget runs out.
            if self.sim.now - rec.started_at > RESTART_WAIT:
                self._give_up(
                    rec,
                    CommunicatorError(
                        f"communicator {comm.comm_id} waited "
                        f"{RESTART_WAIT:g}s but the service on "
                        f"host(s) {waiting} never restarted: "
                        f"{rec.errors[0] if rec.errors else 'service down'}"
                    ),
                )
                return
            rec.kind = "service_crash"
            self._schedule_cycle(rec, delay=RESTART_POLL)
            return
        rec.attempt += 1
        dead = self._dead_ranks(comm)
        if dead:
            # Crashed ranks cannot be repaired by rerouting; classify the
            # episode by its true cause even if a link error arrived first.
            if rec.kind != "service_crash":
                rec.kind = "host_crash"
            error = CommunicatorError(
                f"communicator {comm.comm_id} lost rank(s) {dead}: "
                f"{rec.errors[0] if rec.errors else 'heartbeat missed'}"
            )
            if comm.world - len(dead) < MIN_WORLD:
                self._give_up(rec, error)
            else:
                self._shrink(rec, dead, error)
            return
        if rec.attempt > MAX_ATTEMPTS:
            self._give_up(
                rec,
                CommunicatorError(
                    f"communicator {comm.comm_id} recovery exhausted after "
                    f"{MAX_ATTEMPTS} attempt(s): {rec.errors[-1]}"
                ),
            )
            return

        # 1. Quiesce: reset every started-but-unfinished collective of the
        #    in-flight window (queued ones relaunch through the normal
        #    path once their turn comes).
        window = list(comm.inflight.values())
        rec.retrying = [
            inst
            for inst in window
            if inst.launch_started and not inst.completed and not inst.aborted
        ]
        for inst in rec.retrying:
            inst.reset_for_retry()

        backoff = REPAIR_BACKOFF.delay(rec.attempt - 1)
        self._log(
            comm,
            "recovery_attempt",
            f"attempt {rec.attempt} kind={rec.kind} "
            f"retrying={[inst.seq for inst in rec.retrying]} "
            f"backoff={backoff:g}s",
        )
        for inst in rec.retrying:
            inst.annotate(
                "recovery_attempt",
                attempt=rec.attempt,
                fault=rec.kind,
                backoff_s=backoff,
            )

        attempt = rec.attempt

        def reconfigured(_session: "ReconfigSession") -> None:
            self.sim.call_in(backoff, relaunch)

        def relaunch() -> None:
            if (
                comm.aborted
                or self._cycles.get(comm.comm_id) is not rec
                or rec.attempt != attempt
            ):
                # A newer cycle took over this episode (e.g. a deadline
                # fired between our reset and this delayed relaunch);
                # its relaunch supersedes ours.
                return
            proxies = self.deployment.proxies_of(comm)
            retried = self.telemetry.metrics.counter(
                "mccs_collectives_retried_total",
                "Collective relaunches driven by failure recovery.",
            )
            for inst in rec.retrying:
                if inst.aborted:
                    continue
                retried.inc(app=comm.app_id, kind=inst.kind.value)
                for rank, proxy in enumerate(proxies):
                    proxy.relaunch(rank, inst)
            if not rec.retrying:
                # Nothing was in flight: rerouting alone was the repair.
                self._succeed(rec)

        def retry(error: ReconfigurationError) -> None:
            if self._cycles.get(comm.comm_id) is not rec or rec.attempt != attempt:
                return  # a newer attempt superseded this drain
            rec.errors.append(error)
            self._schedule_cycle(rec)

        # 2. Reroute: bump the strategy version with an empty route map.
        #    Connection tables rebuild for the new version and ECMP
        #    re-selects paths, which exclude links that are down.  One try
        #    per attempt: a busy barrier (another session in flight) or a
        #    failed one is the next attempt, this attempt's backoff later.
        self.deployment.drain(
            comm,
            retry=Backoff(base=backoff, cap=backoff, max_retries=0),
            barrier_timeout=BARRIER_TIMEOUT,
            on_done=reconfigured,
            on_gone=lambda: None,  # aborted or destroyed: nothing to repair
            on_exhausted=retry,
            routes={},
        )

    def _finished(self, instance: CollectiveInstance) -> None:
        """Completion listener: an episode whose relaunched collectives
        have all finished succeeded."""
        rec = self._cycles.get(instance.comm.comm_id)
        if (
            rec is not None
            and not rec.comm.aborted
            and any(inst is instance for inst in rec.retrying)
            and all(inst.completed or inst.aborted for inst in rec.retrying)
        ):
            self._succeed(rec)

    # ------------------------------------------------------------------
    # verdicts
    # ------------------------------------------------------------------
    def _succeed(self, rec: _CommRecovery) -> None:
        comm = rec.comm
        if self._cycles.get(comm.comm_id) is not rec or rec.cycle_scheduled:
            return  # a newer failure already restarted the episode
        self._close(rec, "recovery_succeeded")

    def _shrink(
        self, rec: _CommRecovery, dead: List[int], error: CommunicatorError
    ) -> None:
        """A lost rank is a shrink: the in-flight window aborts typed and
        the communicator, id and all, cuts over to its survivors."""
        comm = rec.comm
        survivors = [gpu for rank, gpu in enumerate(comm.gpus) if rank not in dead]
        # Closed first: the aborts must not read as the retries finishing.
        self._close(
            rec, "recovery_shrunk",
            f" lost rank(s) {dead}: world {comm.world}->{len(survivors)}",
        )
        # Newest first: a queued kernel the stream starts mid-loop finds
        # its instance already aborted and fans out on no old rank.
        for instance in reversed(list(comm.inflight.values())):
            instance.abort(error)
        # No drain: dead ranks cannot contribute to a barrier.  An elastic
        # change in flight, planned against the old rank set, is refused
        # at its own cutover.
        self.deployment.change_membership(comm, survivors, "rank_lost")

    def _close(self, rec: _CommRecovery, event: str, detail: str = "") -> None:
        """Verdict that keeps the communicator: the episode ends and its
        first-failure-to-verdict time is observed."""
        del self._cycles[rec.comm.comm_id]
        duration = self.sim.now - rec.started_at
        self.telemetry.metrics.histogram(
            "mccs_recovery_seconds",
            "First-failure-to-recovered time of repair episodes, by fault kind.",
        ).observe(duration, kind=rec.kind)
        self._log(
            rec.comm,
            event,
            f"kind={rec.kind} attempts={rec.attempt} "
            f"duration={duration:g}s{detail}",
        )

    def _give_up(self, rec: _CommRecovery, error: CommunicatorError) -> None:
        comm = rec.comm
        self._cycles.pop(comm.comm_id, None)
        self.telemetry.metrics.counter(
            "mccs_comms_aborted_total",
            "Communicators degraded to aborted after unrecoverable faults.",
        ).inc(kind=rec.kind)
        comm.abort(error)
        # A session in flight waits on ranks that will never contribute:
        # without this, a drain waiting on it (a live upgrade has no
        # barrier timeout) never ends.
        self.deployment.reconfig.abandon(comm)
        self._log(comm, "recovery_gave_up", f"kind={rec.kind}: {error}")

    # ------------------------------------------------------------------
    def _dead_ranks(self, comm: ServiceCommunicator) -> List[int]:
        """Ranks on a crashed host or behind a dead service.  A service
        with a supervised restart pending is dark, not dead, but the
        cycle has already waited those out (:meth:`_restarting_hosts`)."""
        return [
            rank
            for rank, gpu in enumerate(comm.gpus)
            if not self.deployment.cluster.hosts[gpu.host_id].alive
            or not self.deployment.service_of(gpu.host_id).alive
        ]

    def _restarting_hosts(self, comm: ServiceCommunicator) -> List[int]:
        """Hosts of this communicator whose service is down but has a
        supervised restart pending."""
        supervisor = self.deployment.supervisor
        if supervisor is None:
            return []
        hosts = sorted({gpu.host_id for gpu in comm.gpus})
        return [
            host_id
            for host_id in hosts
            if not self.deployment.service_of(host_id).alive
            and supervisor.restart_pending(host_id)
        ]


class HeartbeatMonitor:
    """Periodic liveness probe of every proxy engine.

    The proxies of a crashed host stop answering; the first missed probe
    reports each dead proxy engine to the :class:`RecoveryManager` exactly
    once (a restarted service has fresh engines, so its next crash is
    reported too).
    The monitor is self-stopping at ``until`` — the simulator runs to
    quiescence, so an unbounded ticker would never let it terminate.
    """

    def __init__(
        self,
        deployment: "MccsDeployment",
        manager: RecoveryManager,
        *,
        until: float,
    ) -> None:
        self.deployment = deployment
        self.manager = manager
        self.until = until
        self.sim = deployment.sim
        #: GPU id -> the dead engine already reported for it.
        self._reported: Dict[int, "ProxyEngine"] = {}
        self._started = False

    def start(self) -> "HeartbeatMonitor":
        if not self._started:
            self._started = True
            self.sim.call_in(HEARTBEAT_INTERVAL, self._tick)
        return self

    def _tick(self) -> None:
        now = self.sim.now
        supervisor = self.deployment.supervisor
        for service in self.deployment.services.values():
            if (
                supervisor is not None
                and supervisor.restart_pending(service.host.host_id)
            ):
                # Known-dark, not silently dead: the supervisor already
                # has a restart in flight for this service.
                continue
            for proxy in service.proxies.values():
                if proxy.heartbeat(now):
                    continue
                if self._reported.get(proxy.gpu_global_id) is proxy:
                    continue
                self._reported[proxy.gpu_global_id] = proxy
                self.manager.telemetry.metrics.counter(
                    "mccs_heartbeats_missed_total",
                    "Proxy liveness probes that went unanswered.",
                ).inc()
                self.manager.telemetry.flight.trigger(
                    "heartbeat_miss",
                    now,
                    gpu=proxy.gpu_global_id,
                    host=proxy.host_id,
                )
                self.manager.proxy_dead(proxy)
        if now + HEARTBEAT_INTERVAL <= self.until + 1e-12:
            self.sim.call_in(HEARTBEAT_INTERVAL, self._tick)
