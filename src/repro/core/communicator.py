"""Service-side communicators and in-flight collective instances.

A :class:`ServiceCommunicator` is the MCCS service's view of one tenant
communicator: the rank->GPU mapping, the current provider-chosen
:class:`~repro.core.strategy.CollectiveStrategy`, the single service-managed
stream that serializes the communicator's collectives (§4.1), and the
per-strategy-version connection tables.

A :class:`CollectiveInstance` is one issued collective.  Crucially, its
traffic is launched **per rank**: each rank's proxy engine launches its
own share of the flows using *that proxy's* current strategy version.
Ranks that launch at one instant share one launch event and enter the
network as one batch, exactly as if each had its own.
This is what makes the Figure 4 synchronization hazard expressible — with
the barrier disabled, rank 0 can launch collective ``seq=1`` on the old
ring while ranks 1 and 2 launch it on the new one, and the instance is
flagged inconsistent.

A communicator's state — rank set, strategy, epochs, issue frontier —
has one home: these objects, owned by the
:class:`~repro.core.deployment.MccsDeployment`, which outlives a service
crash.  The state journal does not copy it; a restarted service
re-registers its proxies from the live communicators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..cluster.gpu import AsyncOp, Event, GpuDevice, Stream
from ..cluster.ipc import IpcEventHandle
from ..cluster.specs import Cluster
from ..collectives.cost_model import LatencyModel, MCCS_LATENCY
from ..collectives.executor import Staging
from ..collectives.programs import FlowProgramCache
from ..collectives.types import Collective, ReduceOp, validate_world
from ..netsim.errors import FaultError, NoPathError, ReconfigurationError
from ..netsim.flows import Flow
from ..netsim.routing import RouteIdSelector, RouteMap
from ..telemetry.causal import (
    EVENT_FIRST_FLOW_START,
    EVENT_RANK_FAILED,
    EVENT_RANK_LAUNCH,
    TRACE_ABORTED,
    TRACE_COMPLETED,
    CausalTrace,
)
from ..telemetry.hub import TelemetryHub
from ..transport.connections import ConnectionTable, connection_key
from .algorithms import AlgorithmContext, RankTransfer, get_algorithm
from .strategy import CollectiveStrategy
from .tracing import CommTrace, TraceRecord
from .transport import TrafficGateManager


class VersionedDataPath:
    """Connection tables per strategy version for one communicator.

    Reconfiguration tears down the old version's connections and
    establishes new ones (§4.2); tables are created lazily on first use of
    a version and retired once no in-flight collective references them.
    """

    def __init__(
        self,
        cluster: Cluster,
        job_id: str,
        ecmp_seed: int,
        *,
        stable: bool = False,
    ) -> None:
        self.cluster = cluster
        self.job_id = job_id
        self.ecmp_seed = ecmp_seed
        #: With ``stable=True`` the ECMP discriminator omits the strategy
        #: version: re-established connections of the same edge re-draw the
        #: same path, so measurements are comparable across versions (and
        #: across communicators, when the job id is caller-chosen too).
        self.stable = stable
        self._tables: Dict[int, ConnectionTable] = {}
        self._selectors: Dict[int, RouteIdSelector] = {}
        self._inflight: Dict[int, int] = {}
        self.teardowns = 0

    def _build(
        self, strategy: CollectiveStrategy, gpus: Sequence[GpuDevice]
    ) -> None:
        version = strategy.version
        if self.stable:
            discriminator = self.job_id
            fallback_seed = self.ecmp_seed
        else:
            discriminator = f"{self.job_id}/v{version}"
            fallback_seed = self.ecmp_seed + version
        route_map = RouteMap()
        for (src_rank, dst_rank, channel), route_id in strategy.route_map().items():
            key = connection_key(
                self.cluster,
                gpus[src_rank],
                gpus[dst_rank],
                channel,
                discriminator,
            )
            route_map.assign(key, route_id)
        selector = RouteIdSelector(route_map, fallback_seed=fallback_seed)
        self._selectors[version] = selector
        self._tables[version] = ConnectionTable(self.cluster, discriminator)
        self._inflight[version] = 0

    def table_for(
        self, strategy: CollectiveStrategy, gpus: Sequence[GpuDevice]
    ) -> Tuple[ConnectionTable, RouteIdSelector]:
        if strategy.version not in self._tables:
            self._build(strategy, gpus)
        return self._tables[strategy.version], self._selectors[strategy.version]

    def acquire(self, version: int) -> None:
        self._inflight[version] = self._inflight.get(version, 0) + 1

    def release(self, version: int, current_version: int) -> None:
        self._inflight[version] = self._inflight.get(version, 0) - 1
        if self._inflight[version] <= 0 and version < current_version:
            self.retire(version)

    def retire_stale(self, current_version: int) -> None:
        """Tear down tables of superseded versions with nothing in flight.

        Called when a reconfiguration commits, so connections of the old
        configuration are closed as soon as the last collective using
        them drains (§4.2).
        """
        for version in list(self._tables):
            if version < current_version and self._inflight.get(version, 0) <= 0:
                self.retire(version)

    def retire(self, version: int) -> None:
        table = self._tables.pop(version, None)
        if table is not None:
            table.teardown()
            self.teardowns += 1
        self._selectors.pop(version, None)
        self._inflight.pop(version, None)

    def live_versions(self) -> List[int]:
        return sorted(self._tables)


@dataclass
class CollectiveInstance:
    """One issued collective and its per-rank launch state."""

    comm: "ServiceCommunicator"
    seq: int
    kind: Collective
    out_bytes: int
    #: The collective's one trace record, opened by the frontend and owned
    #: here: every layer annotates it through :meth:`annotate`, its id tags
    #: every flow, and it closes with the instance.
    trace: CausalTrace
    reduce_op: ReduceOp = ReduceOp.SUM
    root: int = 0
    issue_time: float = 0.0
    dtype: str = "float32"
    send_views: Optional[List[np.ndarray]] = None
    recv_views: Optional[List[np.ndarray]] = None
    on_complete: Optional[Callable[["CollectiveInstance", float], None]] = None
    # filled during execution
    kernel: Optional[AsyncOp] = None
    #: The per-op completion event as exported to the shim; closed when
    #: the instance reaches a terminal state.
    done_handle: Optional[IpcEventHandle] = None
    start_time: Optional[float] = None
    end_time: Optional[float] = None
    rank_versions: Dict[int, int] = field(default_factory=dict)
    #: The strategy the ranks launched under (the one, when consistent).
    launch_strategy: Optional[CollectiveStrategy] = None
    _launched: Set[int] = field(default_factory=set)
    #: This collective's launch event while ranks may still join it:
    #: (event sequence number, (due time, attempt), [(rank, strategy,
    #: transfers), ...]); None once it fired.
    _launch_group: Optional[tuple] = None
    _injected_ranks: Set[int] = field(default_factory=set)
    # failure state
    #: True once the collective was terminated without completing.
    aborted: bool = False
    #: First failure observed (typed; rooted at ReproError).
    error: Optional[BaseException] = None
    #: Launch attempts so far (failure recovery bumps this on retry).
    attempts: int = 1
    _live_flows: Set[Flow] = field(default_factory=set)
    _failed_ranks: Dict[int, BaseException] = field(default_factory=dict)
    #: True after reset_for_retry until the relaunch arrives; keeps the
    #: instance visible to overlapping recovery cycles (a cycle that ran
    #: between a reset and its delayed relaunch must still retry it).
    _awaiting_relaunch: bool = False

    @property
    def world(self) -> int:
        return self.comm.world

    @property
    def completed(self) -> bool:
        return self.end_time is not None and not self.aborted

    @property
    def launch_started(self) -> bool:
        """True once any rank launched (or failed) this attempt."""
        return (
            bool(self._launched)
            or bool(self._failed_ranks)
            or self._awaiting_relaunch
        )

    @property
    def consistent(self) -> bool:
        """True when every rank launched with the same strategy version."""
        return len(set(self.rank_versions.values())) <= 1

    def duration(self) -> float:
        if self.end_time is None:
            raise ValueError(f"collective seq={self.seq} still in flight")
        return self.end_time - self.issue_time

    def annotate(self, kind: str, **attrs: object) -> None:
        """Record one lifecycle fact, now, on the collective's trace."""
        self.trace.annotate(self.comm.sim.now, kind, **attrs)

    # ------------------------------------------------------------------
    def _context(self, strategy: CollectiveStrategy, rank: int) -> AlgorithmContext:
        return AlgorithmContext(
            kind=self.kind,
            out_bytes=self.out_bytes,
            world=self.world,
            rank=rank,
            root=self.root,
            ring_order=strategy.ring.order,
            channels=strategy.channels,
        )

    def rank_launch(self, rank: int, strategy: CollectiveStrategy) -> None:
        """Called by rank ``rank``'s proxy engine when it launches this
        collective under ``strategy``.  Injects that rank's flows after the
        fixed datapath latency, in one event with the other ranks due then."""
        if self.aborted:
            return
        if rank in self._launched:
            raise ReconfigurationError(
                f"rank {rank} double-launched collective seq={self.seq}"
            )
        self._launched.add(rank)
        self._awaiting_relaunch = False
        self.rank_versions[rank] = strategy.version
        self.launch_strategy = strategy
        comm = self.comm
        self.annotate(EVENT_RANK_LAUNCH, rank=rank, version=strategy.version)
        comm.datapath.acquire(strategy.version)

        def resolve() -> Tuple[int, Tuple[RankTransfer, ...]]:
            algorithm = get_algorithm(strategy.algorithm)
            ctx = self._context(strategy, rank)
            return algorithm.steps(ctx), tuple(algorithm.rank_transfers(ctx))

        # Step count and transfers are two views of the one plan the
        # strategy's algorithm names; resolved once per key (what _context
        # reads: a route-only change hits), not per launch.
        steps, transfers = comm.program_cache.get(
            (strategy.algorithm, strategy.ring.order, strategy.channels,
             self.kind, self.out_bytes, self.root, rank), resolve
        )
        fixed = comm.latency.collective_latency(steps)
        sim, member = comm.sim, (rank, strategy, transfers)
        due = (sim.now + fixed, self.attempts)
        group = self._launch_group
        if group is not None and group[0] == sim.last_event_seq and group[1] == due:
            # This collective's last launch event is due at the same
            # instant and nothing was scheduled after it: the two launches
            # would fire back to back, so this rank joins that event.
            group[2].append(member)
            return
        attempt, members = self.attempts, [member]
        seq = sim.call_in(fixed, lambda: self._launch(attempt, members))
        self._launch_group = (seq, due, members)

    def _launch(self, attempt: int, members: List[tuple]) -> None:
        """One launch event: inject the ``(rank, strategy, transfers)``
        launched at one instant, in order, as one batch (rank by rank while
        a link is down), with the outcome of one event per rank: a rank whose
        path is broken fails after the ranks before it entered the network."""
        if self._launch_group is not None and self._launch_group[2] is members:
            self._launch_group = None
        comm = self.comm
        ready: List[tuple] = []
        table = routed = None
        for rank, strategy, transfers in members:
            if self.aborted or self.attempts != attempt:
                # Aborted (or reset for retry) while the launch was in
                # flight: drop it, but balance the datapath refcount.
                comm.datapath.release(strategy.version, comm.strategy.version)
                continue
            if self.start_time is None:
                self.start_time = comm.sim.now
                self.annotate(EVENT_FIRST_FLOW_START)
            # The table routed this rank's transfers before unless they or
            # the routing epoch changed; otherwise every edge is established
            # first, so a broken path fails the rank before any flow exists.
            try:
                rank_table, selector = comm.datapath.table_for(strategy, comm.gpus)
                if rank_table is not table:
                    table, routed = rank_table, rank_table.routed()
                entry = routed.get(rank)
                batch = (entry[1] if entry is not None and entry[0] == transfers
                         else table.route(comm.gpus, rank, transfers, selector))
            except (FaultError, NoPathError) as exc:
                self._inject(ready)
                ready, table = [], None
                self._launch_failed(rank, strategy, exc)
                continue
            ready.append((rank, strategy, batch))
            if comm.sim.topology.any_link_down:
                # A cached connection may cross it and fail ``add_flows``;
                # alone, that rank's failure touches no later rank's edges
                # (its handlers may move the epoch: the next rank re-reads).
                self._inject(ready)
                ready, table = [], None
        self._inject(ready)

    def _launch_failed(
        self, rank: int, strategy: CollectiveStrategy, error: BaseException
    ) -> None:
        """Broken infrastructure (down link, dead NIC, crashed host, or a
        partition with no surviving path) fails the rank instead of
        crashing the event loop."""
        self.comm.datapath.release(strategy.version, self.comm.strategy.version)
        self.rank_failed(rank, error)

    def _inject(self, ready: List[tuple]) -> None:
        """Put ``ready``'s ``(rank, strategy, batch)`` through one ``add_flows``."""
        if not ready:
            return
        comm = self.comm
        try:
            flows = comm.sim.add_flows(
                [transfer for _, _, batch in ready for transfer in batch],
                job_id=comm.app_id,
                tags={"trace": self.trace},
                on_complete=self._flow_done,
                on_fail=self._flow_failed,
            )
        except (FaultError, NoPathError) as exc:
            # A cached connection crosses a down link; ``ready`` is then one
            # rank, and ``add_flows`` is all-or-nothing.
            rank, strategy, _ = ready[0]
            self._launch_failed(rank, strategy, exc)
            return
        if flows:
            self._live_flows.update(flows)
            comm.gate.register(flows)
        for rank, strategy, _ in ready:
            self._injected_ranks.add(rank)
            comm.datapath.release(strategy.version, comm.strategy.version)
        if not flows:
            self._maybe_complete()

    def _flow_done(self, flow: Flow, now: float) -> None:
        """Completion target shared by every flow of this collective."""
        self._live_flows.discard(flow)
        if not self._live_flows:
            self._maybe_complete()

    def _flow_failed(self, flow: Flow, now: float, error: BaseException) -> None:
        """Failure target shared by every flow of this collective."""
        self._live_flows.discard(flow)
        self.rank_failed(flow.rank, error)

    def _maybe_complete(self) -> None:
        if (
            self.end_time is None
            and not self.aborted
            and not self._failed_ranks
            and len(self._injected_ranks) == self.world
            and not self._live_flows
        ):
            self._finish()

    # ------------------------------------------------------------------
    # failure surface
    # ------------------------------------------------------------------
    def rank_failed(self, rank: int, error: BaseException) -> None:
        """Record that ``rank``'s share of this collective failed.

        First failure per rank wins; the communicator's failure handler
        (failure recovery, when enabled) decides what happens next — with
        no handler installed the collective aborts immediately, NCCL
        async-error style.
        """
        if self.aborted or self.completed or rank in self._failed_ranks:
            return
        self._failed_ranks[rank] = error
        if self.error is None:
            self.error = error
        self.annotate(EVENT_RANK_FAILED, rank=rank, error=str(error))
        self.comm.on_instance_failure(self, rank, error)

    def abort(self, error: BaseException) -> None:
        """Terminate this collective without completing it.

        Surviving flows are cancelled, the tenant's kernel/done-event
        chain is released (so waiters unblock instead of hanging), and
        the typed ``error`` is left on the instance.  Buffers are never
        touched — an aborted collective has undefined output, exactly
        like an aborted NCCL communicator.
        """
        if self.aborted or self.completed:
            return
        self.aborted = True
        if self.error is None:
            self.error = error
        comm = self.comm
        self.end_time = comm.sim.now
        for flow in list(self._live_flows):
            comm.sim.cancel_flow(flow)
        self._live_flows.clear()
        comm.telemetry.metrics.counter(
            "mccs_collectives_aborted_total",
            "Collectives terminated by failure handling, by app.",
        ).inc(app=comm.app_id, kind=self.kind.value)
        comm.telemetry.causal.close(
            self.trace, self.end_time, TRACE_ABORTED, error=str(self.error)
        )
        self._retire()

    def reset_for_retry(self) -> None:
        """Return to the never-launched state so proxies can relaunch.

        Cancels whatever traffic the failed attempt still has in flight
        and clears all per-attempt bookkeeping; the bumped
        :attr:`attempts` makes any still-scheduled injection from the
        old attempt a no-op.
        """
        if self.aborted or self.completed:
            raise ReconfigurationError(
                f"cannot retry finished collective seq={self.seq}"
            )
        self.attempts += 1
        self.trace.new_attempt(self.comm.sim.now)
        for flow in list(self._live_flows):
            self.comm.sim.cancel_flow(flow)
        self._live_flows.clear()
        self._launched.clear()
        self._injected_ranks.clear()
        self.rank_versions.clear()
        self.launch_strategy = None
        self._failed_ranks.clear()
        self.error = None
        self.start_time = None
        self._awaiting_relaunch = True

    def _finish(self) -> None:
        comm = self.comm
        self.end_time = comm.sim.now
        if not self.consistent:
            comm.inconsistent_collectives += 1
        if self.recv_views is not None and self.consistent:
            # The executor writes the tenant's receive buffers in place;
            # with nowhere to put a result, no byte moves.
            strategy = self.launch_strategy
            get_algorithm(strategy.algorithm).run_data(
                self._context(strategy, rank=0),
                self.send_views,
                self.reduce_op,
                out=self.recv_views,
                staging=comm.staging,
            )
        comm.completed_series[self.kind].inc()
        comm.duration_series.observe(self.end_time - self.issue_time)
        comm.bytes_series.inc(self.out_bytes)
        comm.telemetry.causal.close(self.trace, self.end_time, TRACE_COMPLETED)
        self._retire()

    def _retire(self) -> None:
        """Terminal state reached (completed or aborted): leave the
        communicator's in-flight map, release what only a live collective
        needs, then wake the waiters.

        From here on the instance is reachable only through the tenant's
        handle, and holds the outcome alone — no buffer views (the tenant
        may free those buffers next), no kernel or callback closures, no
        open IPC export.  Its timestamps are copied, once, into the
        communicator's §4.3 trace.
        """
        comm = self.comm
        comm.trace.append(
            TraceRecord(
                self.seq, self.kind, self.out_bytes,
                self.issue_time, self.start_time, self.end_time,
            )
        )
        # Out of the in-flight map before waking anyone: completion
        # callbacks may immediately destroy the communicator.
        comm.on_instance_finished(self)
        kernel, on_complete = self.kernel, self.on_complete
        self.kernel = self.on_complete = None
        self.send_views = self.recv_views = None
        if self.done_handle is not None:
            # The shim opened it inside its issue call, long before now.
            comm.cluster.hosts[self.done_handle.host_id].ipc.close_event(
                self.done_handle
            )
            self.done_handle = None
        if kernel is not None:
            kernel.complete()
        if on_complete is not None:
            on_complete(self, self.end_time)


class ServiceCommunicator:
    """The MCCS service's state for one tenant communicator.

    ``comm_id`` is issued by the owning deployment; ``gate`` is the
    deployment's traffic gate manager, which sees every launch batch;
    ``staging`` is the deployment's executor scratch, which every
    collective with receive buffers runs in.
    """

    def __init__(
        self,
        cluster: Cluster,
        comm_id: int,
        app_id: str,
        gpus: Sequence[GpuDevice],
        strategy: CollectiveStrategy,
        telemetry: TelemetryHub,
        gate: TrafficGateManager,
        staging: Staging,
        *,
        latency: LatencyModel = MCCS_LATENCY,
        ecmp_seed: int = 0,
        datapath_tag: Optional[str] = None,
    ) -> None:
        validate_world(len(gpus))
        if strategy.world != len(gpus):
            raise ValueError("strategy world does not match gpu count")
        self.comm_id = comm_id
        self.cluster = cluster
        self.sim = cluster.sim
        self.app_id = app_id
        self.gpus = list(gpus)
        self.world = len(gpus)
        self.latency = latency
        self.gate = gate
        self.staging = staging
        self.strategy = strategy
        #: Fresh strategy commits since creation.
        self.strategy_epoch = 0
        # ECMP draws normally hash the comm id and the strategy version,
        # modelling fresh 5-tuples per establishment.  A caller-chosen
        # ``datapath_tag`` pins the namespace instead, giving identical
        # draws for identical edges across strategy versions and across
        # communicators — autotune and fig09 use this so tuned-vs-static
        # and policy-vs-policy compare strategies, not path luck.
        self.datapath = VersionedDataPath(
            cluster,
            datapath_tag
            if datapath_tag is not None
            else f"{app_id}/comm{self.comm_id}",
            ecmp_seed,
            stable=datapath_tag is not None,
        )
        #: One service-managed stream per communicator (§4.1).
        self.stream = Stream(cluster.sim, name=f"comm{self.comm_id}.stream")
        #: Communicator-level completion event created at init time and
        #: shared with the shim (its per-op incarnations are fresh events;
        #: see repro.core.sync for the snapshot-semantics discussion).
        self.comm_event = Event(name=f"comm{self.comm_id}.done")
        #: Its IPC export, when a tenant created the communicator through
        #: the shim (closed when the communicator is destroyed).
        self.comm_event_handle: Optional[IpcEventHandle] = None
        self.next_seq = 0
        #: Bumped once per committed membership change (grow or shrink).
        self.membership_epoch = 0
        #: seq -> instance of every collective in flight (issued, not yet
        #: completed or aborted), in issue order.  A finished instance
        #: belongs to the tenant's handle, not to the service.
        self.inflight: Dict[int, CollectiveInstance] = {}
        self.inconsistent_collectives = 0
        #: The §4.3 trace of this communicator's finished collectives;
        #: owned here, so it goes when the communicator is destroyed.
        self.trace = CommTrace(self.comm_id)
        self.telemetry = telemetry
        # Label handles of the per-collective series, bound once here.
        metrics = telemetry.metrics
        issued = metrics.counter(
            "mccs_collectives_issued_total",
            "Collectives accepted by the frontend, by app and kind.",
        )
        completed = metrics.counter(
            "mccs_collectives_completed_total",
            "Collectives fully drained, by app and kind.",
        )
        self.issued_series = {
            kind: issued.labels(app=app_id, kind=kind.value)
            for kind in Collective
        }
        self.completed_series = {
            kind: completed.labels(app=app_id, kind=kind.value)
            for kind in Collective
        }
        self.duration_series = metrics.histogram(
            "mccs_collective_duration_seconds",
            "Issue-to-completion time of collectives, by app.",
        ).labels(app=app_id)
        self.bytes_series = metrics.counter(
            "mccs_collective_bytes_total",
            "Output bytes of completed collectives, by app.",
        ).labels(app=app_id)
        self.destroyed = False
        #: Set once the communicator is irrecoverably failed; subsequent
        #: tenant requests are rejected with :class:`CommunicatorError`.
        self.aborted = False
        self.abort_error: Optional[BaseException] = None
        #: Installed by failure recovery: ``handler(comm, instance, rank,
        #: error)``.  ``instance`` may be None (heartbeat-detected death
        #: with nothing in flight); ``rank`` may be None (deadline expiry).
        self.failure_handler: Optional[
            Callable[
                ["ServiceCommunicator", Optional[CollectiveInstance],
                 Optional[int], BaseException],
                None,
            ]
        ] = None
        #: Compiled per-rank transfer lists, keyed by everything they
        #: depend on (algorithm, ring order, channels, kind, sizes, root,
        #: rank); traffic loops reissue identical collectives.
        self.program_cache = FlowProgramCache()
        #: ``(key, views)`` of the last buffer check that passed.
        self.views_record: Optional[tuple] = None
        #: Provider-side observers of finished (completed *or* aborted)
        #: collectives — e.g. the autotuner's measurement feed.  Unlike
        #: :attr:`CollectiveInstance.on_complete` (owned by the tenant
        #: shim), many listeners can coexist.
        self.completion_listeners: List[
            Callable[[CollectiveInstance], None]
        ] = []

    # ------------------------------------------------------------------
    def commit_strategy(self, strategy: CollectiveStrategy) -> None:
        """Record a new strategy version (called once a reconfiguration's
        barrier has resolved; proxies switch independently).  Versions
        only grow, so a commit is fresh when it is newer than the current
        one; a repeat of the current version is not."""
        if strategy.version > self.strategy.version:
            self.strategy_epoch += 1
        self.strategy = strategy
        self.datapath.retire_stale(strategy.version)

    def apply_membership(
        self, gpus: Sequence[GpuDevice], strategy: CollectiveStrategy
    ) -> None:
        """Install a new rank set at a membership cutover.

        :meth:`~repro.core.deployment.MccsDeployment.change_membership`
        callers empty the communicator first (elastic drains, recovery
        aborts): renumbering invalidates every in-flight instance's
        rank→GPU mapping, so cutting over with collectives active would
        corrupt their flows.
        """
        validate_world(len(gpus))
        if strategy.world != len(gpus):
            raise ValueError("strategy world does not match gpu count")
        if self.inflight:
            raise ReconfigurationError(
                f"communicator {self.comm_id} still has "
                f"{len(self.inflight)} collective(s) in flight"
            )
        self.gpus = list(gpus)
        self.world = len(gpus)
        self.membership_epoch += 1
        self.commit_strategy(strategy)

    def launch_frontier(self) -> int:
        """Sequence number of the last collective whose kernel started.

        Launch fan-out is synchronous across ranks (the service stream is
        FIFO), so this is exactly the ``launched_seq`` cursor a restarted
        proxy engine must resume from: instances past the frontier are
        still queued on the stream and will arrive through the normal
        :meth:`ProxyEngine.request_launch` ordering check.
        """
        for instance in self.inflight.values():
            if not instance.launch_started:
                return instance.seq - 1
        return self.next_seq - 1

    def add_completion_listener(
        self, listener: Callable[[CollectiveInstance], None]
    ) -> None:
        """Subscribe ``listener`` to every finished collective instance."""
        self.completion_listeners.append(listener)

    def remove_completion_listener(
        self, listener: Callable[[CollectiveInstance], None]
    ) -> None:
        """End a subscription made with :meth:`add_completion_listener`."""
        self.completion_listeners.remove(listener)

    def on_instance_finished(self, instance: CollectiveInstance) -> None:
        self.inflight.pop(instance.seq, None)
        for listener in list(self.completion_listeners):
            listener(instance)

    def on_instance_failure(
        self,
        instance: CollectiveInstance,
        rank: Optional[int],
        error: BaseException,
    ) -> None:
        """Route one rank-level failure to recovery (or fail fast)."""
        if self.failure_handler is not None:
            self.failure_handler(self, instance, rank, error)
        else:
            instance.abort(error)

    def abort(self, error: BaseException) -> None:
        """Irrecoverably fail this communicator.

        Every in-flight collective aborts with ``error`` (waiters
        unblock), and future requests on the communicator raise
        :class:`CommunicatorError` — the graceful-degradation path when
        recovery gives up.  Other communicators are untouched.
        """
        if self.aborted:
            return
        self.aborted = True
        self.abort_error = error
        # Aborts cascade: aborting seq k completes its kernel, the stream
        # starts k+1, whose fan-out sees the dead communicator and aborts
        # it before this loop gets there — hence the snapshot, and
        # ``CollectiveInstance.abort`` being a no-op the second time.
        for instance in list(self.inflight.values()):
            instance.abort(error)
        self.telemetry.events.log(
            self.sim.now,
            "comm_aborted",
            f"comm{self.comm_id} aborted: {error}",
            comm=self.comm_id,
            app=self.app_id,
        )

    def describe(self) -> Dict[str, object]:
        """Management-API snapshot consumed by the centralized controller
        (§4.3: the set of GPUs/hosts per communicator and the current
        collective strategy and network configuration)."""
        return {
            "comm_id": self.comm_id,
            "app_id": self.app_id,
            "gpus": [g.global_id for g in self.gpus],
            "hosts": sorted({g.host_id for g in self.gpus}),
            "ring": list(self.strategy.ring.order),
            "channels": self.strategy.channels,
            "algorithm": self.strategy.algorithm,
            "routes": self.strategy.route_map(),
            "version": self.strategy.version,
        }
