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
    :meth:`~repro.core.deployment.MccsDeployment.change_membership` — the
    one cutover, shared with failure recovery's ``rank_lost`` shrink —
    installs the new rank set under a fresh strategy and logs
    ``membership_committed``.  Survivors keep their relative rank order;
    joiners are appended.  The cutover refuses a change planned against
    a rank set that has since moved (the membership epoch advanced, e.g.
    recovery shrank a lost rank out) or one whose new set holds a rank on
    a crashed host or behind a stopped service.

Admission control vets a joiner's tenant before anything starts
(:class:`~repro.core.admission.AdmissionController`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from ..cluster.gpu import GpuDevice
from ..netsim.errors import MembershipChangeError
from ..resilience import Backoff
from .communicator import ServiceCommunicator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .deployment import MccsDeployment

#: Minimum world size a shrink may leave behind (collectives need peers).
MIN_WORLD = 2


#: A busy or timed-out drain barrier is tried again 10 ms later, 25 tries
#: in all, before the operation fails with ``MembershipChangeError``.
DRAIN_RETRY = Backoff(base=0.01, cap=0.01, max_retries=24)
#: Barrier timeout of one drain try.
DRAIN_TIMEOUT = 0.5


@dataclass
class MembershipChange:
    """One grow/shrink operation, from request to commit (or failure)."""

    comm_id: int
    app_id: str
    #: ``"rank_join"`` or ``"rank_leave"``.
    kind: str
    started: float
    world_before: int
    #: The membership epoch the change was planned against.
    epoch_before: int
    #: Global GPU ids leaving (shrink) / joining (grow).
    left: List[int] = field(default_factory=list)
    joined: List[int] = field(default_factory=list)
    #: Filled at commit time.
    committed: Optional[float] = None
    world_after: Optional[int] = None
    epoch: Optional[int] = None
    error: Optional[BaseException] = None
    #: ``drain`` -> ``quiesce`` -> ``done``/``failed``.
    state: str = "drain"


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
        self._inflight: Dict[int, MembershipChange] = {}

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def grow(
        self, comm_id: int, joiners: Sequence[GpuDevice]
    ) -> MembershipChange:
        """Admit ``joiners`` into the communicator (elastic grow).

        Validation and the admission check happen synchronously; the
        drain/quiesce/cutover sequence then runs on the simulation clock
        and leaves its outcome on the returned record (``state`` ends
        ``"done"`` or ``"failed"``).
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
        if self.deployment.admission is not None:
            self.deployment.admission.admit(comm.app_id)
        op = MembershipChange(
            comm_id=comm.comm_id,
            app_id=comm.app_id,
            kind="rank_join",
            started=self.sim.now,
            world_before=comm.world,
            epoch_before=comm.membership_epoch,
            joined=[gpu.global_id for gpu in joiners],
        )
        self._begin(op, comm)
        return op

    def shrink(self, comm_id: int, ranks: Sequence[int]) -> MembershipChange:
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
        op = MembershipChange(
            comm_id=comm.comm_id,
            app_id=comm.app_id,
            kind="rank_leave",
            started=self.sim.now,
            world_before=comm.world,
            epoch_before=comm.membership_epoch,
            left=[comm.gpus[rank].global_id for rank in sorted(leaving)],
        )
        self._begin(op, comm)
        return op

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
                f"{self._inflight[comm_id].kind} in flight"
            )
        return comm

    def _begin(self, op: MembershipChange, comm: ServiceCommunicator) -> None:
        self._inflight[comm.comm_id] = op
        self.telemetry.events.log(
            self.sim.now,
            "membership_started",
            f"comm{comm.comm_id} {op.kind}: "
            f"left={op.left} joined={op.joined}",
            comm=comm.comm_id,
            app=comm.app_id,
        )
        # Drain: a busy barrier is a concurrent retune/recovery session.
        self.deployment.drain(
            comm,
            retry=DRAIN_RETRY,
            barrier_timeout=DRAIN_TIMEOUT,
            on_done=lambda session: self._quiesce(op, comm),
            on_gone=lambda: self._fail(op, MembershipChangeError(
                f"communicator {comm.comm_id} died during drain"
            )),
            on_exhausted=lambda error: self._fail(
                op, MembershipChangeError(str(error))
            ),
            routes={},
        )

    def _quiesce(self, op: MembershipChange, comm: ServiceCommunicator) -> None:
        op.state = "quiesce"
        if not comm.inflight:
            self._cutover(op, comm)
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
                self._cutover(op, comm)

        comm.add_completion_listener(on_finished)

    def _cutover(self, op: MembershipChange, comm: ServiceCommunicator) -> None:
        if comm.aborted or comm.destroyed:
            self._fail(op, MembershipChangeError(
                f"communicator {comm.comm_id} died before cutover"
            ))
            return
        if comm.membership_epoch != op.epoch_before:
            # Planned against a rank set that is gone: recovery shrank a
            # lost rank out while this change drained or quiesced.
            self._fail(op, MembershipChangeError(
                f"communicator {comm.comm_id} changed membership during "
                f"its {op.kind}"
            ))
            return
        deployment = self.deployment
        if op.kind == "rank_join":
            new_gpus = comm.gpus + [deployment.cluster.gpu(i) for i in op.joined]
        else:
            new_gpus = [gpu for gpu in comm.gpus if gpu.global_id not in op.left]
        lost = [
            gpu.global_id
            for gpu in new_gpus
            if not deployment.cluster.hosts[gpu.host_id].alive
            or not deployment.service_of_gpu(gpu).alive
        ]
        if lost:
            # Recovery shrinks such ranks out (its aborts may be what
            # ended this quiesce), and the heartbeat monitor reports a
            # dead proxy once: a joiner's miss came while it held no rank.
            self._fail(op, MembershipChangeError(
                f"GPU(s) {lost} lost before cutover"
            ))
            return
        deployment.change_membership(comm, new_gpus, op.kind)
        op.state = "done"
        op.committed = self.sim.now
        op.world_after = comm.world
        op.epoch = comm.membership_epoch
        self._inflight.pop(comm.comm_id, None)
        self.telemetry.metrics.histogram(
            "mccs_membership_drain_seconds",
            "Drain-to-commit latency of membership changes, by kind.",
        ).observe(op.committed - op.started, kind=op.kind)

    def _fail(self, op: MembershipChange, error: BaseException) -> None:
        op.state = "failed"
        op.error = error
        self._inflight.pop(op.comm_id, None)
        self.telemetry.metrics.counter(
            "mccs_membership_failures_total",
            "Elastic membership changes that failed terminally, by kind.",
        ).inc(app=op.app_id, kind=op.kind)
        self.telemetry.events.log(
            self.sim.now,
            "membership_failed",
            f"comm{op.comm_id} {op.kind} failed: {error}",
            comm=op.comm_id,
            app=op.app_id,
        )
