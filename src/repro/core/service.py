"""Per-host MCCS service: frontend engines, memory, proxy engines.

"MCCS service runs as a trusted, user-space process with access to all
GPUs and NICs on the host" (§3).  One :class:`MccsService` exists per
host.  Each connected application gets a dedicated
:class:`FrontendEngine` bound to its shared-memory command queue; host-
local concerns (memory allocation/validation, per-GPU proxy engines) live
here, while cross-host concerns (communicator creation, collective
fan-out, reconfiguration) are coordinated by
:class:`~repro.core.deployment.MccsDeployment`.

Being a process, the service can *die* without its host dying.
:meth:`MccsService.crash` models exactly that: proxies stop driving
collectives, frontends stop answering, but GPU memory and the host's IPC
exports survive.  :meth:`MccsService.restart` rebuilds the buffer table by
replaying the deployment's state journal
(:mod:`repro.core.journal`) and re-registers its proxy engines from the
deployment's live communicators, and :meth:`MccsService.upgrade` swaps the
engines live by draining through the §4.2 reconfiguration barrier first.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from ..cluster.host import Host
from ..cluster.ipc import IpcMemHandle
from ..cluster.specs import Cluster
from ..netsim.errors import (
    CommunicatorError,
    JournalError,
    MccsError,
    ReconfigurationError,
    ServiceCrashedError,
    ServiceUnavailableError,
    UpgradeError,
)
from ..resilience import Backoff
from ..telemetry.metrics import WALL_CLOCK_BUCKETS
from .memory import MemoryManager
from .messages import (
    AllocateRequest,
    AllocateResponse,
    CollectiveRequest,
    CommandQueue,
    CreateCommunicatorRequest,
    DestroyCommunicatorRequest,
    FreeRequest,
    P2pRequest,
    Request,
)
from .proxy import ProxyEngine

if TYPE_CHECKING:  # pragma: no cover
    from ..telemetry.hub import TelemetryHub
    from .communicator import ServiceCommunicator
    from .deployment import MccsDeployment

#: An upgrade drain that finds a communicator's barrier busy tries again
#: 2 ms later, 21 tries in all, before the upgrade fails.
UPGRADE_RETRY = Backoff(base=0.002, cap=0.002, max_retries=20)


class FrontendEngine:
    """The dedicated front-end engine of one application on one host.

    It owns the application's command queue and dispatches requests:
    memory management is handled host-locally, communicator and collective
    requests are forwarded to the deployment coordinator.  Data-path
    requests pass through the deployment's admission controller (when
    configured), which bounds each tenant's in-flight work.
    """

    def __init__(
        self,
        service: "MccsService",
        app_id: str,
        deployment: "MccsDeployment",
        generation: int = 0,
    ) -> None:
        self.service = service
        self.app_id = app_id
        self.deployment = deployment
        #: Bumped by live upgrades; lets tests assert the engine object
        #: actually changed while the tenant never noticed.
        self.generation = generation
        self.queue = CommandQueue()
        self.queue.bind(self.handle)
        self.requests_handled = 0
        self.telemetry = service.telemetry
        #: request type -> (hop histogram, request counter) label handles,
        #: bound the first time the type is dispatched.
        self._series: Dict[str, tuple] = {}

    def handle(self, request: Request) -> object:
        """Dispatch one shim request, timing the shim->service hop.

        Delivery over the shared-memory command queue is modelled as
        instantaneous on the *simulated* clock, so the IPC hop histogram
        is wall-clock: it measures the reproduction's own dispatch cost,
        the closest analogue of the paper's ~2.2us proxy overhead (§6.2).
        """
        self.requests_handled += 1
        started = time.perf_counter()
        kind = type(request).__name__
        try:
            return self._dispatch(request)
        finally:
            series = self._series.get(kind)
            if series is None:
                metrics = self.telemetry.metrics
                series = self._series[kind] = (
                    metrics.histogram(
                        "mccs_ipc_hop_seconds",
                        "Wall-clock shim->frontend dispatch latency, by "
                        "request type.",
                        buckets=WALL_CLOCK_BUCKETS,
                    ).labels(request=kind),
                    metrics.counter(
                        "mccs_requests_total",
                        "Shim requests dispatched by frontend engines.",
                    ).labels(app=self.app_id, request=kind),
                )
            series[0].observe(time.perf_counter() - started)
            series[1].inc()

    def _dispatch(self, request: Request) -> object:
        self.service.check_alive()
        if isinstance(request, AllocateRequest):
            return self.service.allocate(
                self.app_id, request.gpu_global_id, request.size
            )
        if isinstance(request, FreeRequest):
            self.service.free(self.app_id, request.buffer_id)
            return None
        if isinstance(request, CreateCommunicatorRequest):
            return self.deployment.handle_create_communicator(self.app_id, request)
        if isinstance(request, CollectiveRequest):
            self._admit()
            return self.deployment.handle_collective(self.app_id, request)
        if isinstance(request, P2pRequest):
            self._admit()
            return self.deployment.handle_p2p(self.app_id, request)
        if isinstance(request, DestroyCommunicatorRequest):
            self.deployment.handle_destroy_communicator(self.app_id, request)
            return None
        raise MccsError(f"unknown request type {type(request).__name__}")

    def _admit(self) -> None:
        if self.deployment.admission is not None:
            self.deployment.admission.admit(self.app_id)


@dataclass
class UpgradeSession:
    """One live upgrade of a host's service engines (Figure 4 drain)."""

    host_id: int
    started_at: float
    #: Communicators drained through the reconfiguration barrier.
    drained_comms: List[int] = field(default_factory=list)
    done_time: Optional[float] = None
    error: Optional[BaseException] = None

    @property
    def done(self) -> bool:
        return self.done_time is not None

    @property
    def failed(self) -> bool:
        return self.error is not None

    def drain_seconds(self) -> float:
        if self.done_time is None:
            raise UpgradeError(f"upgrade of host {self.host_id} still draining")
        return self.done_time - self.started_at


class MccsService:
    """The trusted per-host service process."""

    def __init__(
        self,
        cluster: Cluster,
        host: Host,
        telemetry: "TelemetryHub",
        deployment: "MccsDeployment",
    ) -> None:
        self.cluster = cluster
        self.host = host
        self.telemetry = telemetry
        #: Owner of the journal (crash/restart replay), the communicators
        #: and the reconfiguration barrier (upgrade drain).
        self.deployment = deployment
        self.memory = MemoryManager()
        #: one proxy engine per GPU on this host (§4.2)
        self.proxies: Dict[int, ProxyEngine] = {
            gpu.global_id: ProxyEngine(host.host_id, gpu.global_id, telemetry)
            for gpu in host.gpus
        }
        self._frontends: Dict[str, FrontendEngine] = {}
        #: Cleared while the service process is down.
        self.alive = True
        #: Bumped on every restart/upgrade; fresh engines carry it.
        self.generation = 0
        self.crashes = 0
        self.restarts = 0
        self.upgrades_started = 0
        self._crash_error: Optional[BaseException] = None

    # ------------------------------------------------------------------
    def check_alive(self) -> None:
        if not self.alive:
            raise ServiceUnavailableError(
                f"MCCS service on host {self.host.host_id} is down"
                + (f" ({self._crash_error})" if self._crash_error else "")
            )

    def frontend_for(self, app_id: str, deployment: "MccsDeployment") -> FrontendEngine:
        """The app's dedicated frontend engine (created on first use).

        This is also the shim's reconnect point: the shim re-fetches the
        queue on every call, so after a restart it transparently binds to
        the fresh engine of the new service generation.
        """
        self.check_alive()
        if app_id not in self._frontends:
            self._frontends[app_id] = FrontendEngine(
                self, app_id, deployment, generation=self.generation
            )
        return self._frontends[app_id]

    def proxy_for(self, gpu_global_id: int) -> ProxyEngine:
        try:
            return self.proxies[gpu_global_id]
        except KeyError:
            raise MccsError(
                f"GPU {gpu_global_id} is not on host {self.host.host_id}"
            ) from None

    # ------------------------------------------------------------------
    # host-local request handling
    # ------------------------------------------------------------------
    def allocate(self, app_id: str, gpu_global_id: int, size: int) -> AllocateResponse:
        self.check_alive()
        gpu = self.cluster.gpu(gpu_global_id)
        if gpu.host_id != self.host.host_id:
            raise MccsError(
                f"allocation for GPU {gpu_global_id} sent to host "
                f"{self.host.host_id}"
            )
        alloc = self.memory.allocate(app_id, gpu, size, self.host.ipc)
        self._journal(
            "alloc",
            app=app_id,
            host=self.host.host_id,
            gpu=gpu_global_id,
            buffer_id=alloc.buffer_id,
            size=size,
            handle_id=alloc.handle.handle_id,
        )
        return AllocateResponse(
            buffer_id=alloc.buffer_id, handle=alloc.handle, size=size
        )

    def free(self, app_id: str, buffer_id: int) -> None:
        """Release a buffer.  Typed errors, idempotent under retry:
        unknown ids raise :class:`~repro.errors.InvalidBufferError`, a
        retried free of an already-freed id is a no-op."""
        self.check_alive()
        applied = self.memory.free(app_id, buffer_id, self.host.ipc)
        if applied:
            for comm in self.deployment.communicators():
                if comm.app_id == app_id:  # no views record keeps it alive
                    comm.views_record = None
            self._journal(
                "free", app=app_id, host=self.host.host_id, buffer_id=buffer_id
            )

    def _journal(self, op: str, **payload: object) -> None:
        self.deployment.journal.append(self.cluster.sim.now, op, **payload)

    # ------------------------------------------------------------------
    # crash / restart (journal replay)
    # ------------------------------------------------------------------
    def crash(self, error: Optional[BaseException] = None) -> None:
        """Kill the service process; the host and its GPUs survive.

        Every proxy engine dies (pending launches fail typed, in-flight
        rank shares of active collectives stall-fail so recovery notices),
        frontend engines vanish, and subsequent shim calls raise
        :class:`ServiceUnavailableError` until :meth:`restart`.
        """
        if not self.alive:
            return
        self.alive = False
        self.crashes += 1
        err = error if error is not None else ServiceCrashedError(
            f"MCCS service on host {self.host.host_id} crashed"
        )
        self._crash_error = err
        # Stall-fail the rank shares this host's proxies were driving: a
        # dead proxy engine stops moving chunks, which peers observe as a
        # stalled collective.  rank_failed routes into failure recovery.
        for proxy in self.proxies.values():
            for comm_id, rank in proxy.ranks():
                try:
                    comm = self.deployment.communicator(comm_id)
                except CommunicatorError:
                    continue
                for instance in list(comm.inflight.values()):
                    if instance.launch_started and not instance.completed:
                        instance.rank_failed(rank, err)
        for proxy in self.proxies.values():
            proxy.fail(err)
        self._frontends.clear()
        self.telemetry.metrics.counter(
            "mccs_service_crashes_total",
            "MCCS service process crashes, by host.",
        ).inc(host=f"h{self.host.host_id}")
        self.telemetry.events.log(
            self.cluster.sim.now,
            "service_crashed",
            f"MCCS service on host {self.host.host_id} crashed",
            host=self.host.host_id,
        )
        self.telemetry.flight.trigger(
            "crash", self.cluster.sim.now, host=self.host.host_id
        )
        if self.deployment.supervisor is not None:
            self.deployment.supervisor.notify_crash(self)

    def restart(self) -> Optional[int]:
        """Restart the service, reconstructing state by journal replay.

        The memory manager is rebuilt by re-adopting the device buffers
        and IPC exports that survived the crash (both are host state, not
        service state); proxy engines are re-registered from the
        deployment's live communicators with their launch cursors set to
        each communicator's :meth:`~repro.core.communicator.
        ServiceCommunicator.launch_frontier`.  Returns the number of
        journal records replayed (0 when the journal is empty), or
        ``None`` when the service is alive and nothing was restarted.
        """
        if self.alive:
            return None
        from .journal import replay_journal

        journal = self.deployment.journal
        records = journal.records()
        state = replay_journal(records)
        memory = MemoryManager()
        restored = 0
        for buffer_id, info in state.buffers.items():
            if info["host"] != self.host.host_id:
                continue
            gpu = self.cluster.gpu(info["gpu"])
            buffer = gpu.allocation(buffer_id)
            if buffer is None or buffer.size != info["size"]:
                raise JournalError(
                    f"journal names buffer {buffer_id} on GPU {info['gpu']} "
                    "but the device does not hold it"
                )
            handle = IpcMemHandle(
                handle_id=info["handle"], host_id=self.host.host_id
            )
            memory.adopt(info["app"], buffer, handle)
            restored += 1
        for record in records:
            if (
                record.op == "free"
                and record.payload["host"] == self.host.host_id
            ):
                memory.mark_freed(record.payload["buffer_id"])
        self.memory = memory

        self.proxies = {
            gpu.global_id: ProxyEngine(
                self.host.host_id, gpu.global_id, self.telemetry
            )
            for gpu in self.host.gpus
        }
        self.alive = True
        self._crash_error = None
        self.generation += 1
        self.restarts += 1
        for comm in self.deployment.communicators():
            if not comm.aborted:
                self.deployment.register_ranks(comm, host_id=self.host.host_id)
        self.telemetry.metrics.counter(
            "mccs_service_restarts_total",
            "MCCS service restarts reconstructed from the journal.",
        ).inc(host=f"h{self.host.host_id}")
        self.telemetry.events.log(
            self.cluster.sim.now,
            "service_restarted",
            f"host {self.host.host_id} gen {self.generation}: replayed "
            f"{len(records)} journal record(s), {restored} buffer(s)",
            host=self.host.host_id,
            generation=self.generation,
        )
        return len(records)

    # ------------------------------------------------------------------
    # live upgrade (Figure 4 drain, then engine swap)
    # ------------------------------------------------------------------
    def upgrade(self) -> UpgradeSession:
        """Swap this host's engines live; tenants see only a latency blip.

        Every communicator with a rank on this host is drained through
        the §4.2 reconfiguration barrier; once all barriers resolve, the
        frontend and proxy engines are replaced by fresh objects of the
        next generation, the proxies taking over the quiesced per-rank
        state (by reference, see :meth:`ProxyEngine.adopt_ranks`).
        Asynchronous — returns the session immediately; drive the
        simulator to complete it.
        """
        self.check_alive()
        sim = self.cluster.sim
        host_id = self.host.host_id
        session = UpgradeSession(host_id=host_id, started_at=sim.now)
        self.upgrades_started += 1
        self.telemetry.events.log(
            sim.now, "upgrade_started", f"host {host_id} upgrading", host=host_id
        )
        to_drain = [
            comm
            for comm in self.deployment.communicators()
            if not comm.aborted and any(g.host_id == host_id for g in comm.gpus)
        ]
        remaining = {comm.comm_id for comm in to_drain}

        def finish() -> None:
            if session.failed:
                return
            self.generation += 1
            for gpu_global_id, old in list(self.proxies.items()):
                engine = ProxyEngine(host_id, gpu_global_id, self.telemetry)
                engine.adopt_ranks(old)
                self.proxies[gpu_global_id] = engine
            self._frontends.clear()
            session.done_time = sim.now
            self.telemetry.metrics.counter(
                "mccs_upgrades_total", "Live service upgrades completed."
            ).inc(host=f"h{host_id}")
            self.telemetry.metrics.histogram(
                "mccs_upgrade_drain_seconds",
                "Barrier-drain time of live upgrades.",
            ).observe(session.drain_seconds())
            self.telemetry.events.log(
                sim.now,
                "upgrade_done",
                f"host {host_id} now gen {self.generation} (drained "
                f"{len(session.drained_comms)} communicator(s))",
                host=host_id,
            )

        def settled(comm: "ServiceCommunicator", drained: bool) -> None:
            if drained:
                session.drained_comms.append(comm.comm_id)
            remaining.discard(comm.comm_id)
            if not remaining:
                finish()

        def exhausted(
            comm: "ServiceCommunicator", error: ReconfigurationError
        ) -> None:
            if session.failed:
                return
            session.error = UpgradeError(
                f"upgrade of host {host_id} abandoned: {error}"
            )
            self.telemetry.metrics.counter(
                "mccs_upgrade_failures_total",
                "Live upgrades abandoned because a communicator never "
                "drained.",
            ).inc(host=f"h{host_id}")
            self.telemetry.events.log(
                sim.now,
                "upgrade_failed",
                f"host {host_id} upgrade abandoned",
                host=host_id,
                comm=comm.comm_id,
                error=str(session.error),
            )

        if not to_drain:
            # An idle host: swap at the next scheduler tick so the API
            # stays async.
            sim.call_in(0.0, finish)
        for comm in to_drain:
            # Another session (recovery, autotuner, the provider) may be
            # mid-flight on the communicator: the drain waits it out.
            self.deployment.drain(
                comm,
                retry=UPGRADE_RETRY,
                barrier_timeout=None,
                on_done=lambda _s, comm=comm: settled(comm, True),
                on_gone=lambda comm=comm: settled(comm, False),
                on_exhausted=lambda err, comm=comm: exhausted(comm, err),
            )
        return session
