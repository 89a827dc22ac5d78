"""Elastic membership: live grow/shrink of communicators.

Geo-distributed training jobs on a multi-tenant WAN fabric do not keep a
fixed rank set: spot capacity in a remote region comes and goes, and the
provider must let a communicator *shrink* (a rank leaves gracefully) or
*grow* (a joiner is admitted) without tearing the job down.  The
:class:`ElasticCoordinator` implements both on top of the same Figure 4
reconfiguration barrier that strategy changes use, as a small state
machine per membership operation:

``DRAIN``
    Push a barrier reconfiguration through the communicator.  The barrier
    AllGathers every rank's launch cursor, picks the cut sequence, and
    lets stragglers catch up under the old strategy — after it resolves,
    no rank will ever launch a pre-cut collective again.  A busy barrier
    (another session in flight, e.g. an autotuner retune) is retried on
    the simulation clock by :meth:`MccsDeployment.drain`.

``QUIESCE``
    Wait for the in-flight collectives to finish draining their flows.
    Rank renumbering while traffic is live would corrupt the rank→GPU
    mapping of running instances, so the cutover refuses to proceed until
    :attr:`~repro.core.communicator.ServiceCommunicator.inflight`
    is empty.

``CUTOVER``
    Journal a write-ahead ``membership_change`` record, unregister every
    old rank's proxy engine, install the new rank set and a fresh
    strategy for the new world size
    (:meth:`~repro.core.communicator.ServiceCommunicator.apply_membership`
    bumps the membership epoch), re-register the surviving and joining
    proxies with their launch cursors at the communicator's frontier, and
    notify failure recovery and the autotuner.  Survivors keep their
    relative rank order; joiners are appended.

Joiners go through a handshake first: admission control vets the
tenant (:class:`~repro.core.admission.AdmissionController`), and a
staging buffer is allocated on each joiner's service — the same
write-ahead ``alloc`` path tenant buffers use, so crash/restart replay
reconstructs them.  The buffers are freed if the rank later leaves.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from ..cluster.gpu import GpuDevice
from ..netsim.errors import (
    CommunicatorError,
    MccsError,
    MembershipChangeError,
)
from ..resilience import Backoff
from ..telemetry.ringbuffer import RingBuffer
from .communicator import ServiceCommunicator
from .strategy import default_strategy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .deployment import MccsDeployment

#: Minimum world size a shrink may leave behind (collectives need peers).
MIN_WORLD = 2


#: A busy or timed-out drain barrier is tried again 10 ms later, 25 tries
#: in all, before the operation fails with ``MembershipChangeError``.
DRAIN_RETRY = Backoff(base=0.01, cap=0.01, max_retries=24)
#: Barrier timeout of one drain try.
DRAIN_TIMEOUT = 0.5
#: Size of the per-joiner staging buffer allocated by the join handshake.
STAGING_BYTES = 1 << 16
#: Finished operations :attr:`ElasticCoordinator.history` keeps, newest
#: last (each repeats a ``membership_committed`` / ``_failed`` event).
HISTORY_KEPT = 256


@dataclass
class MembershipChange:
    """One grow/shrink operation, from request to commit (or failure)."""

    comm_id: int
    app_id: str
    #: ``"rank_join"`` or ``"rank_leave"``.
    kind: str
    started: float
    world_before: int
    #: Global GPU ids leaving (shrink) / joining (grow).
    left: List[int] = field(default_factory=list)
    joined: List[int] = field(default_factory=list)
    #: Filled at commit time.
    committed: Optional[float] = None
    world_after: Optional[int] = None
    epoch: Optional[int] = None
    error: Optional[BaseException] = None
    #: Internal state: ``drain`` -> ``quiesce`` -> ``done``/``failed``.
    state: str = "drain"

    @property
    def finished(self) -> bool:
        return self.state in ("done", "failed")


class ElasticCoordinator:
    """Deployment-wide coordinator for live membership changes.

    One operation per communicator may be in flight at a time; a second
    request while one is active raises
    :class:`~repro.errors.MembershipChangeError` synchronously.
    """

    def __init__(self, deployment: "MccsDeployment") -> None:
        self.deployment = deployment
        self.sim = deployment.sim
        self.telemetry = deployment.telemetry()
        self._inflight: Dict[int, "_Operation"] = {}
        #: The last finished operations, in commit/failure order (audits).
        self.history: RingBuffer[MembershipChange] = RingBuffer(HISTORY_KEPT)
        #: Staging buffers allocated for joiners, freed when they leave.
        self._staging: Dict[Tuple[int, int], int] = {}

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def grow(
        self,
        comm_id: int,
        joiners: Sequence[GpuDevice],
        *,
        on_done: Optional[Callable[[MembershipChange], None]] = None,
        on_failed: Optional[Callable[[MembershipChange], None]] = None,
    ) -> MembershipChange:
        """Admit ``joiners`` into the communicator (elastic grow).

        The joiner handshake — admission check and staging-buffer
        allocation — happens synchronously; the drain/quiesce/cutover
        sequence then runs on the simulation clock and reports through
        ``on_done``/``on_failed``.
        """
        comm = self._checked_comm(comm_id)
        joiners = list(joiners)
        if not joiners:
            raise MembershipChangeError("grow needs at least one joiner")
        members = {gpu.global_id for gpu in comm.gpus}
        seen: set = set()
        for gpu in joiners:
            if gpu.global_id in members:
                raise MembershipChangeError(
                    f"GPU {gpu.global_id} is already a member of "
                    f"communicator {comm_id}"
                )
            if gpu.global_id in seen:
                raise MembershipChangeError(
                    f"GPU {gpu.global_id} listed twice in the join request"
                )
            seen.add(gpu.global_id)
            host = self.deployment.cluster.hosts[gpu.host_id]
            if not host.alive:
                raise MembershipChangeError(
                    f"joiner GPU {gpu.global_id} is on crashed host {gpu.host_id}"
                )
            self.deployment.service_of_gpu(gpu).check_alive()
        # Joiner handshake: admission vets the tenant, then each joiner
        # gets a staging buffer through the journaled alloc path.
        if self.deployment.admission is not None:
            self.deployment.admission.admit(comm.app_id)
        for gpu in joiners:
            response = self.deployment.service_of_gpu(gpu).allocate(
                comm.app_id, gpu.global_id, STAGING_BYTES
            )
            self._staging[(comm.comm_id, gpu.global_id)] = response.buffer_id
        record = MembershipChange(
            comm_id=comm.comm_id,
            app_id=comm.app_id,
            kind="rank_join",
            started=self.sim.now,
            world_before=comm.world,
            joined=[gpu.global_id for gpu in joiners],
        )
        op = _Operation(record, comm, joiners=joiners,
                        on_done=on_done, on_failed=on_failed)
        self._begin(op)
        return record

    def shrink(
        self,
        comm_id: int,
        ranks: Sequence[int],
        *,
        on_done: Optional[Callable[[MembershipChange], None]] = None,
        on_failed: Optional[Callable[[MembershipChange], None]] = None,
    ) -> MembershipChange:
        """Gracefully remove ``ranks`` from the communicator.

        Survivors are renumbered deterministically: they keep their
        relative order, ranks compact downward.
        """
        comm = self._checked_comm(comm_id)
        leaving = set(ranks)
        if not leaving:
            raise MembershipChangeError("shrink needs at least one rank")
        for rank in leaving:
            if not 0 <= rank < comm.world:
                raise MembershipChangeError(
                    f"rank {rank} out of range for world {comm.world}"
                )
        if comm.world - len(leaving) < MIN_WORLD:
            raise MembershipChangeError(
                f"shrinking communicator {comm_id} by {len(leaving)} rank(s) "
                f"would leave {comm.world - len(leaving)} < {MIN_WORLD}"
            )
        record = MembershipChange(
            comm_id=comm.comm_id,
            app_id=comm.app_id,
            kind="rank_leave",
            started=self.sim.now,
            world_before=comm.world,
            left=[comm.gpus[rank].global_id for rank in sorted(leaving)],
        )
        op = _Operation(record, comm, leaving_ranks=leaving,
                        on_done=on_done, on_failed=on_failed)
        self._begin(op)
        return record

    def inflight(self, comm_id: int) -> Optional[MembershipChange]:
        op = self._inflight.get(comm_id)
        return op.record if op is not None else None

    # ------------------------------------------------------------------
    # chaos entry points (fault injector)
    # ------------------------------------------------------------------
    def chaos_shrink(self, comm_id: Optional[int] = None) -> bool:
        """Deterministic chaos helper: the lowest-id shrinkable
        communicator (or ``comm_id``) loses its highest rank.  Returns
        whether a shrink was started; never raises."""
        comm = self._chaos_pick(comm_id, lambda c: c.world > MIN_WORLD)
        if comm is None:
            return False
        try:
            self.shrink(comm.comm_id, [comm.world - 1])
        except MccsError:
            return False
        return True

    def chaos_grow(self, comm_id: Optional[int] = None) -> bool:
        """Deterministic chaos helper: the lowest-id growable communicator
        (or ``comm_id``) admits the lowest-id spare alive GPU.  Returns
        whether a grow was started; never raises."""
        comm = self._chaos_pick(comm_id, lambda c: True)
        if comm is None:
            return False
        used = {
            gpu.global_id
            for other in self.deployment.communicators()
            for gpu in other.gpus
        }
        spare = None
        for gpu in self.deployment.cluster.gpus:
            if gpu.global_id in used:
                continue
            host = self.deployment.cluster.hosts[gpu.host_id]
            if not host.alive or not self.deployment.service_of_gpu(gpu).alive:
                continue
            spare = gpu
            break
        if spare is None:
            return False
        try:
            self.grow(comm.comm_id, [spare])
        except MccsError:
            return False
        return True

    def _chaos_pick(
        self, comm_id: Optional[int], eligible: Callable[[ServiceCommunicator], bool]
    ) -> Optional[ServiceCommunicator]:
        if comm_id is not None:
            try:
                comm = self.deployment.communicator(comm_id)
            except CommunicatorError:
                return None
            candidates = [comm]
        else:
            candidates = sorted(
                self.deployment.communicators(), key=lambda c: c.comm_id
            )
        for comm in candidates:
            if comm.aborted or comm.destroyed:
                continue
            if comm.comm_id in self._inflight:
                continue
            if eligible(comm):
                return comm
        return None

    # ------------------------------------------------------------------
    # state machine
    # ------------------------------------------------------------------
    def _checked_comm(self, comm_id: int) -> ServiceCommunicator:
        comm = self.deployment.communicator(comm_id)
        if comm.aborted:
            raise MembershipChangeError(
                f"communicator {comm_id} is aborted: {comm.abort_error}"
            )
        if comm_id in self._inflight:
            raise MembershipChangeError(
                f"communicator {comm_id} already has a "
                f"{self._inflight[comm_id].record.kind} in flight"
            )
        return comm

    def _begin(self, op: "_Operation") -> None:
        comm = op.comm
        self._inflight[comm.comm_id] = op
        self.telemetry.events.log(
            self.sim.now,
            "membership_started",
            f"comm{comm.comm_id} {op.record.kind}: "
            f"left={op.record.left} joined={op.record.joined}",
            comm=comm.comm_id,
            app=comm.app_id,
        )
        # Drain: a busy barrier is a concurrent retune/recovery session.
        self.deployment.drain(
            comm,
            retry=DRAIN_RETRY,
            barrier_timeout=DRAIN_TIMEOUT,
            on_done=lambda session: self._quiesce(op),
            on_gone=lambda: self._fail(op, MembershipChangeError(
                f"communicator {comm.comm_id} died during drain"
            )),
            on_exhausted=lambda error: self._fail(op, MembershipChangeError(
                f"drain of communicator {comm.comm_id} failed after "
                f"{DRAIN_RETRY.max_retries + 1} attempts"
            )),
            routes={},
        )

    def _quiesce(self, op: "_Operation") -> None:
        if op.record.finished:
            return
        op.record.state = "quiesce"
        comm = op.comm
        if not comm.inflight:
            self._cutover(op)
            return

        def on_finished(instance) -> None:
            dead = comm.aborted or comm.destroyed
            if comm.inflight and not dead:
                return  # still quiescing
            # One wait, one subscription: it ends with the quiesce.
            comm.remove_completion_listener(on_finished)
            if dead:
                self._fail(op, MembershipChangeError(
                    f"communicator {comm.comm_id} died during quiesce"
                ))
            else:
                self._cutover(op)

        comm.add_completion_listener(on_finished)

    def _cutover(self, op: "_Operation") -> None:
        comm = op.comm
        deployment = self.deployment
        if comm.aborted or comm.destroyed:
            self._fail(op, MembershipChangeError(
                f"communicator {comm.comm_id} died before cutover"
            ))
            return
        old_gpus = list(comm.gpus)
        if op.record.kind == "rank_join":
            new_gpus = old_gpus + list(op.joiners)
        else:
            new_gpus = [
                gpu for rank, gpu in enumerate(old_gpus)
                if rank not in op.leaving_ranks
            ]
        # Write-ahead: the membership record lands before any live-state
        # mutation, so a crash mid-cutover replays to the new rank set.
        deployment.journal.append(
            self.sim.now,
            "membership_change",
            app=comm.app_id,
            comm_id=comm.comm_id,
            epoch=comm.membership_epoch + 1,
            kind=op.record.kind,
            gpus=[gpu.global_id for gpu in new_gpus],
            left=list(op.record.left),
            joined=list(op.record.joined),
        )
        for rank, gpu in enumerate(old_gpus):
            service = deployment.service_of_gpu(gpu)
            if not service.alive:
                continue
            try:
                service.proxy_for(gpu.global_id).unregister(comm, rank)
            except MccsError:
                pass  # proxy already gone (service restarted mid-drain)
        new_strategy = replace(
            default_strategy(len(new_gpus), comm.strategy.channels),
            version=comm.strategy.version + 1,
        )
        comm.apply_membership(new_gpus, new_strategy)
        deployment.register_ranks(comm)
        # Leavers hand their staging buffers back.
        for global_id in op.record.left:
            buffer_id = self._staging.pop((comm.comm_id, global_id), None)
            if buffer_id is not None:
                gpu = deployment.cluster.gpu(global_id)
                service = deployment.service_of_gpu(gpu)
                if service.alive:
                    service.free(comm.app_id, buffer_id)
        op.record.state = "done"
        op.record.committed = self.sim.now
        op.record.world_after = comm.world
        op.record.epoch = comm.membership_epoch
        self._inflight.pop(comm.comm_id, None)
        self.history.append(op.record)
        if deployment.recovery is not None:
            deployment.recovery.membership_changed(comm, op.record.kind)
        if deployment.autotuner is not None:
            deployment.autotuner.membership_changed(comm)
        self.telemetry.metrics.counter(
            "mccs_membership_changes_total",
            "Committed elastic membership changes, by app and kind.",
        ).inc(app=comm.app_id, kind=op.record.kind)
        self.telemetry.metrics.histogram(
            "mccs_membership_drain_seconds",
            "Drain-to-commit latency of membership changes, by kind.",
        ).observe(op.record.committed - op.record.started, kind=op.record.kind)
        self.telemetry.events.log(
            self.sim.now,
            "membership_committed",
            f"comm{comm.comm_id} {op.record.kind} committed: "
            f"world {op.record.world_before}->{op.record.world_after} "
            f"epoch={comm.membership_epoch}",
            comm=comm.comm_id,
            app=comm.app_id,
        )
        if op.on_done is not None:
            op.on_done(op.record)

    def _fail(self, op: "_Operation", error: BaseException) -> None:
        if op.record.finished:
            return
        op.record.state = "failed"
        op.record.error = error
        self._inflight.pop(op.comm.comm_id, None)
        self.history.append(op.record)
        # A failed grow never reached the cutover: release the joiners'
        # staging buffers so the handshake leaves no residue.
        for global_id in op.record.joined:
            buffer_id = self._staging.pop((op.comm.comm_id, global_id), None)
            if buffer_id is not None:
                gpu = self.deployment.cluster.gpu(global_id)
                service = self.deployment.service_of_gpu(gpu)
                if service.alive:
                    service.free(op.comm.app_id, buffer_id)
        self.telemetry.metrics.counter(
            "mccs_membership_failures_total",
            "Elastic membership changes that failed terminally, by kind.",
        ).inc(app=op.comm.app_id, kind=op.record.kind)
        self.telemetry.events.log(
            self.sim.now,
            "membership_failed",
            f"comm{op.comm.comm_id} {op.record.kind} failed: {error}",
            comm=op.comm.comm_id,
            app=op.comm.app_id,
        )
        if op.on_failed is not None:
            op.on_failed(op.record)


class _Operation:
    """Mutable driver state of one in-flight membership change."""

    __slots__ = ("record", "comm", "joiners", "leaving_ranks",
                 "on_done", "on_failed")

    def __init__(
        self,
        record: MembershipChange,
        comm: ServiceCommunicator,
        *,
        joiners: Optional[List[GpuDevice]] = None,
        leaving_ranks: Optional[set] = None,
        on_done: Optional[Callable[[MembershipChange], None]] = None,
        on_failed: Optional[Callable[[MembershipChange], None]] = None,
    ) -> None:
        self.record = record
        self.comm = comm
        self.joiners = joiners if joiners is not None else []
        self.leaving_ranks = leaving_ranks if leaving_ranks is not None else set()
        self.on_done = on_done
        self.on_failed = on_failed
