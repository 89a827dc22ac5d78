"""Deployment-wide coordination of the MCCS services.

One :class:`MccsDeployment` spans the cluster: it owns the per-host
services, the telemetry hub, the traffic gate manager, the data plane's
staging buffer and the reconfiguration manager, and it exposes the
provider-facing management API that the centralized controller consumes
(§4.3):

* :meth:`describe` — active communicators, their GPU/host sets and current
  strategy/network configuration;
* :meth:`trace` — fine-grained collective traces;
* :meth:`reconfigure` — push a new strategy through the Figure 4 barrier;
* :meth:`set_traffic_schedule` — install TS transmission windows.

Applications never touch this object directly; they connect through
:meth:`connect`, which returns the shim (:class:`~repro.core.shim.MccsClient`).
"""

from __future__ import annotations

import itertools
from dataclasses import replace

import numpy as np

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle broken for type hints
    from ..autotune import AutoTuner
    from ..resilience import Backoff
    from .recovery import HeartbeatMonitor, RecoveryManager
    from .supervisor import ServiceSupervisor

from ..baselines.nccl import default_channels
from ..cluster.gpu import AsyncOp, Event, GpuDevice
from ..cluster.specs import Cluster
from ..collectives.cost_model import MCCS_LATENCY
from ..collectives.executor import Staging
from ..collectives.types import Collective, input_bytes
from ..netsim.errors import (
    CollectiveTimeoutError,
    CommunicatorError,
    FaultError,
    InvalidBufferError,
    MccsError,
    NoPathError,
    ReconfigurationError,
)
from ..telemetry.hub import TelemetryHub
from .admission import AdmissionController, AdmissionPolicy
from .communicator import CollectiveInstance, ServiceCommunicator, ViewsRecord
from .elastic import ElasticCoordinator
from .journal import ControlPlaneState, StateJournal, snapshot_deployment
from .messages import (
    BufferRef,
    CollectiveRequest,
    CollectiveResponse,
    CreateCommunicatorRequest,
    CreateCommunicatorResponse,
    DestroyCommunicatorRequest,
)
from .proxy import ProxyEngine
from .reconfig import ReconfigManager, ReconfigSession
from .service import MccsService
from .strategy import CollectiveStrategy, default_strategy
from .tracing import CommTrace
from .transport import TrafficGateManager, WindowSchedule


class MccsDeployment:
    """All MCCS services of a cluster plus the provider control surface."""

    def __init__(
        self,
        cluster: Cluster,
        *,
        datapath_latency: Optional[float] = None,
        ecmp_seed: int = 0,
    ) -> None:
        latency = MCCS_LATENCY
        if datapath_latency is not None:
            # §6.2 knob: override the shim->service hop.
            if datapath_latency < 0:
                raise ValueError("datapath_latency must be non-negative")
            latency = replace(latency, datapath=datapath_latency)
        self.cluster = cluster
        self.sim = cluster.sim
        self.latency = latency
        self.ecmp_seed = ecmp_seed
        #: The service sees every collective (§4.3): the hub is built with
        #: the simulator it observes, and every layer below is handed it.
        self._telemetry = TelemetryHub(cluster.sim)
        self._telemetry.network.set_program_cache_provider(
            self.program_cache_stats
        )
        #: State journal of the buffer and tenant tables.  Owned
        #: here — not by any per-host service — so it survives service
        #: crashes; MccsService.restart() replays it.  Communicator state
        #: needs no journal: this object is its one home.
        self.journal = StateJournal(self._telemetry)
        self.services: Dict[int, MccsService] = {
            host.host_id: MccsService(cluster, host, self._telemetry, self)
            for host in cluster.hosts
        }
        self.gates = TrafficGateManager(cluster.sim, self._telemetry)
        #: The data plane's scratch, like tenant memory owned by the
        #: service: one buffer for every communicator, sized by the
        #: largest working set one collective has needed.
        self.staging = Staging()
        self.reconfig = ReconfigManager(
            cluster.sim, self.proxies_of, self._telemetry
        )
        #: Communicator ids are the deployment's: they feed the ECMP hash,
        #: so a tenant's paths depend on this deployment alone.
        self._comm_ids = itertools.count()
        self._comms: Dict[int, ServiceCommunicator] = {}
        self._comm_owner: Dict[int, str] = {}
        #: Optional provider hook deciding the initial strategy of every
        #: tenant-created communicator (installed by the controller via
        #: CentralManager.manage_admissions()).
        self.strategy_factory: Optional[
            Callable[[str, Sequence[GpuDevice], int], CollectiveStrategy]
        ] = None
        #: Failure recovery, armed via :meth:`enable_recovery`.
        self.recovery: Optional["RecoveryManager"] = None
        self.heartbeat_monitor: Optional["HeartbeatMonitor"] = None
        #: Online strategy autotuner, armed via :meth:`enable_autotuning`.
        self.autotuner: Optional["AutoTuner"] = None
        #: Admission control, armed via :meth:`configure_admission`.
        self.admission: Optional[AdmissionController] = None
        #: Crash supervisor, armed via :meth:`enable_service_supervision`.
        self.supervisor: Optional["ServiceSupervisor"] = None
        #: Live membership changes (elastic grow/shrink) of every
        #: communicator.
        self.elastic = ElasticCoordinator(self)
        #: Tenant-facing service gateway; installed by
        #: ``repro.service.gateway.ServiceGateway(deployment, ...)``.
        self.gateway = None
        #: Live tenant registry (installed by ``TenantRegistry``; the
        #: journal's live-state snapshot reads tenant tables through it).
        self.tenant_registry = None
        self._telemetry.set_resilience_provider(self.resilience_stats)

    # ------------------------------------------------------------------
    # failure recovery
    # ------------------------------------------------------------------
    def enable_recovery(
        self,
        *,
        collective_deadline: Optional[float] = 1.0,
        heartbeat_until: Optional[float] = None,
    ) -> "RecoveryManager":
        """Arm failure recovery for every (current and future) communicator.

        Args:
            collective_deadline: Per-collective issue-to-completion
                deadline of the watchdog; ``None`` disables it.
            heartbeat_until: Also run the proxy :class:`HeartbeatMonitor`
                up to this simulation time (the monitor must be bounded —
                the simulator runs to quiescence).  ``None`` relies on
                data-path signals alone.
        """
        from .recovery import HeartbeatMonitor, RecoveryManager

        if self.recovery is None:
            self.recovery = RecoveryManager(self, collective_deadline)
            for comm in self._comms.values():
                self.recovery.attach(comm)
        else:
            self.recovery.collective_deadline = collective_deadline
        if heartbeat_until is not None:
            self.heartbeat_monitor = HeartbeatMonitor(
                self, self.recovery, until=heartbeat_until
            ).start()
        return self.recovery

    # ------------------------------------------------------------------
    # resilience: admission control, crash supervision, journal state
    # ------------------------------------------------------------------
    def configure_admission(
        self, policy: Optional[AdmissionPolicy] = None
    ) -> AdmissionController:
        """Arm (or re-policy) admission control over data-path requests.

        Every collective/p2p request entering any frontend engine is then
        checked against per-tenant QoS quotas and the deployment-wide
        overload cap; sheds raise :class:`~repro.errors.
        AdmissionRejectedError` back through the shim.
        """
        if self.admission is None:
            self.admission = AdmissionController(self, policy)
        elif policy is not None:
            self.admission.policy = policy
        return self.admission

    def enable_service_supervision(
        self, restart_delay: float = 0.02
    ) -> "ServiceSupervisor":
        """Arm the supervisor that restarts crashed services from the
        journal after ``restart_delay`` simulated seconds."""
        from .supervisor import ServiceSupervisor

        if self.supervisor is None:
            self.supervisor = ServiceSupervisor(
                self, restart_delay=restart_delay
            )
        else:
            self.supervisor.restart_delay = restart_delay
        return self.supervisor

    def crash_service(self, host_id: int) -> None:
        """Kill one host's service process (the host itself survives)."""
        self.service_of(host_id).crash()

    def restart_service(self, host_id: int) -> Optional[int]:
        """Restart one host's service by journal replay; returns the
        number of records replayed, or ``None`` when the service was
        alive (see :meth:`MccsService.restart`)."""
        return self.service_of(host_id).restart()

    def control_state(self) -> ControlPlaneState:
        """Snapshot of the live control plane in journal-comparable form."""
        return snapshot_deployment(self)

    def verify_journal(self) -> List[str]:
        """Replay the journal and diff it against the live control plane.

        Returns the (empty when consistent) list of mismatch descriptions;
        the crash/restart tests assert it stays empty across kill cycles.
        """
        from .journal import replay_journal

        return replay_journal(self.journal.records()).diff(self.control_state())

    def resilience_stats(self) -> Dict[str, int]:
        """Provider for the telemetry summary's resilience lines."""
        stats = {
            "journal_records": len(self.journal),
            "journal_appends": self.journal.appends_total,
            "service_crashes": sum(
                service.crashes for service in self.services.values()
            ),
            "service_restarts": sum(
                service.restarts for service in self.services.values()
            ),
            "upgrades": sum(
                service.upgrades_started for service in self.services.values()
            ),
        }
        if self.admission is not None:
            stats["admitted"] = self.admission.admitted_total
            stats["shed"] = self.admission.shed_total
        return stats

    # ------------------------------------------------------------------
    # strategy autotuning
    # ------------------------------------------------------------------
    def enable_autotuning(self) -> "AutoTuner":
        """Arm the online autotuner for every (current and future)
        communicator.

        The tuner feeds measured collective durations into a
        bounded-exploration bandit per (kind, world, size-bucket) and
        applies strategy changes exclusively through the §4.2
        reconfiguration barrier.
        """
        from ..autotune import AutoTuner

        if self.autotuner is None:
            self.autotuner = AutoTuner(self)
        for comm in self._comms.values():
            self.autotuner.attach(comm)
        return self.autotuner

    # ------------------------------------------------------------------
    # application-facing entry point
    # ------------------------------------------------------------------
    def connect(self, app_id: str) -> "MccsClient":
        """Attach an application; returns its shim library instance."""
        from .shim import MccsClient

        return MccsClient(self, app_id)

    def service_of(self, host_id: int) -> MccsService:
        return self.services[host_id]

    def service_of_gpu(self, gpu: GpuDevice) -> MccsService:
        return self.services[gpu.host_id]

    # ------------------------------------------------------------------
    # request handlers invoked by the frontend engines
    # ------------------------------------------------------------------
    def handle_create_communicator(
        self, app_id: str, request: CreateCommunicatorRequest
    ) -> CreateCommunicatorResponse:
        gpus = [self.cluster.gpu(i) for i in request.gpu_global_ids]
        comm = self.create_communicator(app_id, gpus)
        root_host = self.cluster.hosts[gpus[0].host_id]
        # Exported for the communicator's lifetime; closed at destroy.
        comm.comm_event_handle = root_host.ipc.export_event(comm.comm_event)
        return CreateCommunicatorResponse(
            comm_id=comm.comm_id, done_event=comm.comm_event_handle
        )

    def create_communicator(
        self,
        app_id: str,
        gpus: Sequence[GpuDevice],
        *,
        channels: Optional[int] = None,
        strategy: Optional[CollectiveStrategy] = None,
        datapath_tag: Optional[str] = None,
    ) -> ServiceCommunicator:
        """Create a communicator; the tenant's rank order is preserved but
        the *strategy* belongs to the provider from here on."""
        if channels is None:
            channels = default_channels(gpus)
        if strategy is None:
            if self.strategy_factory is not None:
                strategy = self.strategy_factory(app_id, gpus, channels)
            else:
                strategy = default_strategy(len(gpus), channels)
        comm = ServiceCommunicator(
            self.cluster,
            next(self._comm_ids),
            app_id,
            gpus,
            strategy,
            self._telemetry,
            self.gates,
            self.staging,
            latency=self.latency,
            ecmp_seed=self.ecmp_seed,
            datapath_tag=datapath_tag,
        )
        self._comms[comm.comm_id] = comm
        self._comm_owner[comm.comm_id] = app_id
        self.register_ranks(comm)
        if self.recovery is not None:
            self.recovery.attach(comm)
        if self.autotuner is not None:
            self.autotuner.attach(comm)
        return comm

    def handle_destroy_communicator(
        self, app_id: str, request: DestroyCommunicatorRequest
    ) -> None:
        comm = self._owned_comm(app_id, request.comm_id)
        if comm.inflight:
            raise CommunicatorError(
                f"communicator {comm.comm_id} still has "
                f"{len(comm.inflight)} collective(s) in flight"
            )
        for rank, gpu in enumerate(comm.gpus):
            self.service_of_gpu(gpu).proxy_for(gpu.global_id).unregister(comm, rank)
        for version in comm.datapath.live_versions():
            comm.datapath.retire(version)
        comm.views_record = None
        if comm.comm_event_handle is not None:
            host = self.cluster.hosts[comm.comm_event_handle.host_id]
            host.ipc.close_event(comm.comm_event_handle)
            comm.comm_event_handle = None
        if self.autotuner is not None:
            self.autotuner.detach(comm)
        comm.destroyed = True
        del self._comms[comm.comm_id]
        del self._comm_owner[comm.comm_id]
        # A session in flight would reach ranks that are gone: it fails
        # now, and a drain waiting on it ends on the destroy.
        self.reconfig.abandon(comm)

    def handle_collective(
        self, app_id: str, request: CollectiveRequest
    ) -> CollectiveResponse:
        """Validate, sequence, and enqueue one collective (§4.1).

        The request is turned into a :class:`CollectiveInstance` whose
        kernel is enqueued on the communicator's service stream; when the
        kernel starts, the launch fans out to each rank's proxy engine.
        """
        comm = self._owned_comm(app_id, request.comm_id)
        self._check_not_aborted(comm)
        if request.out_bytes <= 0:
            raise CommunicatorError("collective size must be positive")
        views = self._views(app_id, comm, request)
        seq = comm.next_seq
        comm.next_seq += 1
        # The collective's one trace record; the instance owns it from here.
        trace = self._telemetry.causal.open(
            self.sim.now,
            tenant=app_id,
            comm_id=f"comm{comm.comm_id}",
            seq=seq,
            kind=request.kind.value,
            nbytes=request.out_bytes,
            strategy_version=comm.strategy.version,
        )
        comm.issued_series[request.kind].inc()
        instance = CollectiveInstance(
            comm=comm,
            seq=seq,
            kind=request.kind,
            out_bytes=request.out_bytes,
            trace=trace,
            reduce_op=request.reduce_op,
            root=request.root,
            issue_time=self.sim.now,
            dtype=request.dtype,
            views=views,
        )
        comm.inflight[seq] = instance

        root_host = self.cluster.hosts[comm.gpus[0].host_id]
        if request.stream_event is not None:
            app_event = root_host.ipc.open_event(request.stream_event)
            comm.stream.wait_event(app_event)

        def fan_out() -> None:
            if instance.aborted:
                return  # aborted while queued: no (old) rank to launch on
            if comm.aborted:
                # The communicator died while this kernel sat queued on
                # the stream: terminate the instance (completing the
                # kernel) so the stream keeps draining for waiters.
                instance.abort(
                    comm.abort_error
                    if comm.abort_error is not None
                    else CommunicatorError(f"communicator {comm.comm_id} aborted")
                )
                return
            for rank, gpu in enumerate(comm.gpus):
                proxy = self.service_of_gpu(gpu).proxy_for(gpu.global_id)
                proxy.request_launch(rank, instance)

        kernel = AsyncOp(name=f"comm{comm.comm_id}.seq{seq}", on_start=fan_out)
        instance.kernel = kernel
        comm.stream.enqueue(kernel)
        done_event = Event(name=f"comm{comm.comm_id}.seq{seq}.done")
        comm.stream.record_event(done_event)
        self._arm_deadline(comm, instance)
        if instance.end_time is None:
            # Exported per op, closed by the instance when it terminates.
            instance.done_handle = root_host.ipc.export_event(done_event)
        return CollectiveResponse(
            comm_id=comm.comm_id,
            seq=seq,
            done_event=instance.done_handle,
            instance=instance,
        )

    def _arm_deadline(
        self, comm: ServiceCommunicator, instance: CollectiveInstance
    ) -> None:
        """Watchdog: a collective that neither completes nor aborts within
        recovery's ``collective_deadline`` surfaces a typed timeout.

        The watchdog re-arms after firing so a stalled retry keeps being
        reported; recovery's attempt cap (or instance completion) stops it.
        """
        if self.recovery is None:
            return
        deadline = self.recovery.collective_deadline
        if deadline is None:
            return

        def expired() -> None:
            if instance.completed or instance.aborted or comm.destroyed:
                return
            error = CollectiveTimeoutError(
                f"collective seq={instance.seq} on comm {comm.comm_id} "
                f"exceeded its {deadline:g}s deadline "
                f"(attempt {instance.attempts})"
            )
            if instance.error is None:
                instance.error = error
            self._telemetry.metrics.counter(
                "mccs_collective_deadlines_total",
                "Collective deadline expiries detected by the watchdog.",
            ).inc(app=comm.app_id)
            self._telemetry.flight.trigger(
                "deadline",
                self.sim.now,
                trace=instance.trace,
                comm=comm.comm_id,
                seq=instance.seq,
                attempt=instance.attempts,
            )
            comm.on_instance_failure(instance, None, error)
            self.sim.call_in(deadline, expired)

        self.sim.call_in(deadline, expired)

    def handle_p2p(self, app_id: str, request) -> "P2pResponse":
        """Point-to-point transfer between two ranks (§5 extension).

        P2P ops serialize on the communicator's service stream like
        collectives, but do not participate in the reconfiguration
        sequence numbering — they involve only two ranks, so the Figure 4
        barrier (which relies on every collective involving every rank)
        does not apply; they simply use whatever connections the current
        strategy version provides.
        """
        from .messages import P2pRequest, P2pResponse

        assert isinstance(request, P2pRequest)
        comm = self._owned_comm(app_id, request.comm_id)
        self._check_not_aborted(comm)
        if request.nbytes <= 0:
            raise CommunicatorError("transfer size must be positive")
        if not (
            0 <= request.src_rank < comm.world
            and 0 <= request.dst_rank < comm.world
        ) or request.src_rank == request.dst_rank:
            raise CommunicatorError(
                f"bad p2p ranks ({request.src_rank} -> {request.dst_rank})"
            )
        dtype = np.dtype(request.dtype)
        send_view = recv_view = None
        if request.send_ref is not None:
            if request.send_ref.nbytes != request.nbytes:
                raise InvalidBufferError("send buffer size mismatch")
            send_view = self._rank_view(app_id, comm, request.src_rank, request.send_ref, dtype)
        if request.recv_ref is not None:
            if request.recv_ref.nbytes != request.nbytes:
                raise InvalidBufferError("recv buffer size mismatch")
            recv_view = self._rank_view(app_id, comm, request.dst_rank, request.recv_ref, dtype)

        root_host = self.cluster.hosts[comm.gpus[0].host_id]
        if request.stream_event is not None:
            app_event = root_host.ipc.open_event(request.stream_event)
            comm.stream.wait_event(app_event)
        done_event = Event(name=f"comm{comm.comm_id}.p2p.done")
        handle = root_host.ipc.export_event(done_event)

        def start() -> None:
            strategy = comm.strategy
            comm.datapath.acquire(strategy.version)
            fixed = comm.latency.collective_latency(1)

            def inject() -> None:
                try:
                    table, selector = comm.datapath.table_for(strategy, comm.gpus)
                    conn = table.establish_edge(
                        comm.gpus[request.src_rank],
                        comm.gpus[request.dst_rank],
                        0,
                        selector,
                    )
                    flows = self.sim.add_flows(
                        ((request.nbytes, conn.path, 0),),
                        job_id=comm.app_id,
                        tags={"p2p": True},
                        on_complete=finish,
                        on_fail=failed,
                    )
                except (FaultError, NoPathError) as exc:
                    # Same surface as a rank's injection: broken
                    # infrastructure fails the transfer, not the event loop.
                    failed(None, self.sim.now, exc)
                    return
                comm.gate.register(flows)

            def finish(_flow, _now: float) -> None:
                if send_view is not None and recv_view is not None:
                    np.copyto(recv_view, send_view)
                release()

            def failed(_flow, now: float, error: BaseException) -> None:
                """No bytes arrive; the stream still drains (P2P has no
                retry — two ranks, no barrier to relaunch under)."""
                self._telemetry.events.log(
                    now,
                    "p2p_failed",
                    f"p2p {request.src_rank} -> {request.dst_rank}: {error}",
                    comm=comm.comm_id,
                    app=comm.app_id,
                )
                release()

            def release() -> None:
                comm.datapath.release(strategy.version, comm.strategy.version)
                # The shim opened the per-op export inside its call.
                root_host.ipc.close_event(handle)
                kernel.complete()

            self.sim.call_in(fixed, inject)

        kernel = AsyncOp(name=f"comm{comm.comm_id}.p2p", on_start=start)
        comm.stream.enqueue(kernel)
        comm.stream.record_event(done_event)
        return P2pResponse(comm_id=comm.comm_id, done_event=handle)

    def program_cache_stats(self) -> Dict[str, int]:
        """Aggregate flow-program cache stats over all live communicators
        (the provider for the ``mccs_program_cache_*`` gauges)."""
        totals = {"size": 0, "hits": 0, "misses": 0, "evictions": 0}
        for comm in self._comms.values():
            for name, value in comm.program_cache.stats().items():
                totals[name] += value
        return totals

    def network_utilization(self, min_utilization: float = 0.0) -> Dict[str, float]:
        """Provider-side view of current link utilization (never exposed
        to tenants — the confidentiality point of §2.2)."""
        return self.sim.link_utilization(min_utilization)

    def _views(
        self, app_id: str, comm: ServiceCommunicator, request: CollectiveRequest
    ) -> Optional[ViewsRecord]:
        """The request's checked views, from the communicator's record while
        the tenant, request, rank set and its services' generations hold
        (a new record starts with no bound run)."""
        if not request.send_refs:
            return None
        key = [app_id, request.send_refs, request.recv_refs, request.dtype,
               request.kind, request.out_bytes, comm.membership_epoch]
        for gpu in comm.gpus:
            service = self.services[gpu.host_id]
            key += service.generation, service.memory.generation
        if comm.views_record is None or comm.views_record.key != key:
            comm.views_record = ViewsRecord(
                key, *self._validated_views(app_id, comm, request)
            )
        return comm.views_record

    def _validated_views(
        self, app_id: str, comm: ServiceCommunicator, request: CollectiveRequest
    ) -> Tuple[List, Optional[List]]:
        """Bounds-check buffer references and materialize numpy views."""
        if len(request.send_refs) != comm.world:
            raise InvalidBufferError("need one send buffer per rank")
        dtype = np.dtype(request.dtype)
        expected = input_bytes(request.kind, request.out_bytes, comm.world)
        send_views = []
        for rank, ref in enumerate(request.send_refs):
            if ref.nbytes != expected:
                raise InvalidBufferError(
                    f"rank {rank} send buffer is {ref.nbytes} bytes; "
                    f"{request.kind} of {request.out_bytes} needs {expected}"
                )
            send_views.append(self._rank_view(app_id, comm, rank, ref, dtype))
        recv_views = None
        if request.recv_refs:
            if len(request.recv_refs) != comm.world:
                raise InvalidBufferError("need one recv buffer per rank")
            recv_views = []
            for rank, ref in enumerate(request.recv_refs):
                if ref.nbytes != request.out_bytes:
                    raise InvalidBufferError(
                        f"rank {rank} recv buffer is {ref.nbytes} bytes; the "
                        f"output-buffer convention requires {request.out_bytes}"
                    )
                recv_views.append(self._rank_view(app_id, comm, rank, ref, dtype))
            self._check_aliasing(request)
        return send_views, recv_views

    def _rank_view(
        self,
        app_id: str,
        comm: ServiceCommunicator,
        rank: int,
        ref: BufferRef,
        dtype: np.dtype,
    ) -> np.ndarray:
        """Rank ``rank``'s checked view of ``ref``: the tenant's buffer, in
        range, on the rank's own GPU."""
        gpu = comm.gpus[rank]
        return self.service_of_gpu(gpu).memory.view(app_id, ref, dtype, gpu)

    @staticmethod
    def _check_aliasing(request: CollectiveRequest) -> None:
        """Classify overlap between the byte ranges one collective names.

        The executor writes receive buffers in place while it still reads
        send buffers, so the one legal alias is a rank's receive range
        being *exactly* its own send range, for the kinds whose input and
        output coincide; anything partial would silently corrupt the
        result and is refused before the collective is sequenced.  Send
        ranges may share bytes with each other (they are only read).
        """
        by_buffer: Dict[int, List[Tuple[str, int, BufferRef]]] = {}
        for role, refs in (("send", request.send_refs), ("recv", request.recv_refs)):
            for rank, ref in enumerate(refs):
                by_buffer.setdefault(ref.buffer_id, []).append((role, rank, ref))
        in_place_ok = request.kind in (
            Collective.ALL_REDUCE, Collective.BROADCAST, Collective.REDUCE
        )
        for group in by_buffer.values():  # ranges of one allocation
            for i, (role_a, rank_a, a) in enumerate(group):
                for role_b, rank_b, b in group[i + 1:]:
                    if role_a == role_b == "send" or not (
                        a.offset < b.offset + b.nbytes
                        and b.offset < a.offset + a.nbytes
                    ):
                        continue
                    if in_place_ok and rank_a == rank_b and a == b:
                        continue  # exact in-place: recv is the rank's own send
                    raise InvalidBufferError(
                        f"rank {rank_a} {role_a} range [{a.offset}, "
                        f"{a.offset + a.nbytes}) of buffer {a.buffer_id} overlaps "
                        f"rank {rank_b} {role_b} range [{b.offset}, "
                        f"{b.offset + b.nbytes}); only exact in-place (recv == "
                        f"the same rank's send) all_reduce, broadcast and "
                        f"reduce may alias"
                    )

    def _check_not_aborted(self, comm: ServiceCommunicator) -> None:
        if comm.aborted:
            raise CommunicatorError(
                f"communicator {comm.comm_id} was aborted by failure "
                f"recovery: {comm.abort_error}"
            )

    def _owned_comm(self, app_id: str, comm_id: int) -> ServiceCommunicator:
        comm = self._comms.get(comm_id)
        if comm is None:
            raise CommunicatorError(f"unknown communicator {comm_id}")
        if self._comm_owner[comm_id] != app_id:
            raise CommunicatorError(
                f"communicator {comm_id} belongs to "
                f"{self._comm_owner[comm_id]!r}, not {app_id!r}"
            )
        return comm

    # ------------------------------------------------------------------
    # provider-facing management API (§4.3)
    # ------------------------------------------------------------------
    def communicators(self) -> List[ServiceCommunicator]:
        return list(self._comms.values())

    def communicator(self, comm_id: int) -> ServiceCommunicator:
        try:
            return self._comms[comm_id]
        except KeyError:
            raise CommunicatorError(f"unknown communicator {comm_id}") from None

    def describe(self) -> List[Dict[str, object]]:
        """Cluster-wide snapshot for the centralized controller."""
        return [comm.describe() for comm in self._comms.values()]

    def trace(self, comm_id: int) -> CommTrace:
        """The §4.3 trace of a live communicator (it goes at destroy)."""
        return self.communicator(comm_id).trace

    def telemetry(self) -> TelemetryHub:
        """Provider-side observability surface: metrics, spans, decision
        events, and link-utilization series, with exporters attached
        (:meth:`TelemetryHub.to_prometheus`, :meth:`~TelemetryHub.to_json`,
        :meth:`~TelemetryHub.to_chrome_trace`)."""
        return self._telemetry

    def proxies_of(self, comm: ServiceCommunicator) -> List[ProxyEngine]:
        return [
            self.service_of_gpu(gpu).proxy_for(gpu.global_id) for gpu in comm.gpus
        ]

    def register_ranks(
        self, comm: ServiceCommunicator, host_id: Optional[int] = None
    ) -> None:
        """Register ``comm``'s ranks (only those on ``host_id``, when
        given) with their proxy engines, launch cursors at the
        communicator's :meth:`~ServiceCommunicator.launch_frontier`.
        Fresh rank states know no session: one in flight fails here."""
        frontier = comm.launch_frontier()
        fresh = [
            (rank, gpu) for rank, gpu in enumerate(comm.gpus)
            if host_id is None or gpu.host_id == host_id
        ]
        for rank, gpu in fresh:
            proxy = self.service_of_gpu(gpu).proxy_for(gpu.global_id)
            proxy.register(comm, rank)
            proxy.state(comm.comm_id, rank).launched_seq = frontier
        if fresh:
            self.reconfig.abandon(comm)

    def change_membership(
        self, comm: ServiceCommunicator, gpus: Sequence[GpuDevice], kind: str
    ) -> None:
        """The one membership cutover: ``comm`` moves to the rank set
        ``gpus`` under a fresh default strategy, for the reason ``kind``
        (elastic ``"rank_join"`` / ``"rank_leave"`` after a drain and a
        quiesce, recovery's ``"rank_lost"`` after aborting the in-flight
        window)."""
        world_before = comm.world
        # Dead engines too: one that kept (comm, old rank) would report it
        # again on its heartbeat miss.
        for rank, proxy in enumerate(self.proxies_of(comm)):
            proxy.unregister(comm, rank)
        comm.apply_membership(gpus, replace(
            default_strategy(len(gpus), comm.strategy.channels),
            version=comm.strategy.version + 1,
        ))
        self.register_ranks(comm)
        if self.recovery is not None:
            self.recovery.membership_changed(comm)
        if self.autotuner is not None:
            self.autotuner.membership_changed(comm)
        self._telemetry.metrics.counter(
            "mccs_membership_changes_total",
            "Committed membership changes, by app and kind.",
        ).inc(app=comm.app_id, kind=kind)
        self._telemetry.events.log(
            self.sim.now,
            "membership_committed",
            f"comm{comm.comm_id} {kind} committed: world {world_before}"
            f"->{comm.world} epoch={comm.membership_epoch}",
            comm=comm.comm_id,
            app=comm.app_id,
        )

    def reconfigure(
        self,
        comm_id: int,
        *,
        ring: Optional[Sequence[int]] = None,
        routes: Optional[Dict[Tuple[int, int, int], int]] = None,
        channels: Optional[int] = None,
        algorithm: Optional[str] = None,
        delays: Optional[Sequence[float]] = None,
        barrier_enabled: bool = True,
        barrier_timeout: Optional[float] = None,
        on_done: Optional[Callable[[ReconfigSession], None]] = None,
        on_failed: Optional[Callable[[ReconfigSession], None]] = None,
    ) -> ReconfigSession:
        """Provider command: move a communicator to a new strategy."""
        from ..collectives.ring import RingSchedule

        comm = self.communicator(comm_id)
        self._check_not_aborted(comm)
        new_strategy = comm.strategy.evolve(
            ring=RingSchedule(tuple(ring)) if ring is not None else None,
            channels=channels,
            algorithm=algorithm,
            routes=routes,
        )
        return self.reconfig.reconfigure(
            comm,
            new_strategy,
            delays=delays,
            barrier_enabled=barrier_enabled,
            barrier_timeout=barrier_timeout,
            on_done=on_done,
            on_failed=on_failed,
        )

    def drain(
        self,
        comm: ServiceCommunicator,
        *,
        retry: "Backoff",
        barrier_timeout: Optional[float],
        on_done: Callable[[ReconfigSession], None],
        on_gone: Callable[[], None],
        on_exhausted: Callable[[ReconfigurationError], None],
        **evolve: object,
    ) -> None:
        """Push a barrier session through ``comm``, waiting out a busy one.

        The one way to "every rank past one cut" (elastic membership,
        live upgrades, recovery's reroute).  Try ``n`` (0-based) calls
        :meth:`reconfigure` with the ``evolve`` overrides; when the
        barrier is busy (another session in flight) or the session fails,
        the next try follows ``retry.delay(n)`` later.  A try that finds
        the communicator aborted or destroyed ends the drain with
        ``on_gone()``; the try after ``retry.max_retries`` retries ends it
        with ``on_exhausted(error)``, which names the tries and the last
        cause.
        """

        def attempt(n: int, error: Optional[BaseException] = None) -> None:
            if comm.aborted or comm.destroyed:
                on_gone()
                return
            if n > retry.max_retries:
                on_exhausted(ReconfigurationError(
                    f"drain of communicator {comm.comm_id} failed after "
                    f"{n} {'try' if n == 1 else 'tries'}: {error}"
                ))
                return

            def again(cause: Optional[BaseException]) -> None:
                self.sim.call_in(
                    retry.delay(n), lambda: attempt(n + 1, cause)
                )

            try:
                self.reconfigure(
                    comm.comm_id,
                    barrier_timeout=barrier_timeout,
                    on_done=on_done,
                    on_failed=lambda session: again(session.error),
                    **evolve,
                )
            except MccsError as exc:
                again(exc)

        attempt(0)

    def set_traffic_schedule(
        self, app_id: str, schedule: Optional[WindowSchedule]
    ) -> None:
        """Install (or clear) TS transmission windows for a tenant."""
        self.gates.set_schedule(app_id, schedule)

    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        """Advance the shared simulation clock (driver convenience)."""
        return self.sim.run(until=until)
