"""The service gateway: REST-shaped, robust front door to the control plane.

Request lifecycle (data path, ``POST /v1/collectives``)::

    transport -> auth -> brownout -> rate limit -> backpressure -> breaker
              -> class queue -> bulkhead dispatch -> frontend engine
              -> collective instance -> completion callback -> response

Every pre-dispatch stage can *reject* with a typed error (a decision,
counted in ``mccs_gateway_rejections_total``); once a request has been
issued to a frontend engine it is *executed* and runs to completion —
the two sets are disjoint by construction, which the hypothesis property
suite asserts.  Dispatch failures are split the way a real front door
splits them: a down host service is transient (capped-exponential retry
within the request deadline), an admission shed is a decision (surfaced,
never retried), anything else is a 5xx that feeds the tenant's circuit
breaker.

The gateway *composes with* :mod:`repro.core.admission` rather than
replacing it: registering a tenant assigns its QoS class to the
admission controller, whose per-tenant in-flight quotas and
deployment-wide shedding still backstop the door.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Callable, Deque, Dict, List, Optional, Set, Tuple
from collections import deque

import numpy as np

from ..collectives.types import Collective, input_bytes
from ..core.messages import CollectiveRequest, CollectiveResponse
from ..core.shim import MccsClient
from ..netsim.errors import (
    AdmissionRejectedError,
    ReproError,
    ServiceUnavailableError,
)
from .errors import (
    AuthenticationError,
    BackpressureError,
    BrownoutShedError,
    CircuitOpenError,
    GatewayError,
    GatewayTimeoutError,
    InvalidRequestError,
    RateLimitedError,
    UnknownRouteError,
)
from .limits import (
    BreakerPolicy,
    BrownoutController,
    BrownoutPolicy,
    CircuitBreaker,
    GatewayRetryPolicy,
    TokenBucket,
)
from .registry import TenantAccount, TenantQuota, TenantRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.communicator import CollectiveInstance
    from ..core.deployment import MccsDeployment

_KINDS = {kind.value: kind for kind in Collective}


@dataclass
class GatewayRequest:
    """One REST-shaped request entering the gateway."""

    method: str
    path: str
    api_key: Optional[str] = None
    body: Dict[str, object] = field(default_factory=dict)
    #: Relative deadline (seconds from acceptance); ``None`` uses the
    #: gateway policy default.  Applies until the request is executed.
    ttl: Optional[float] = None
    request_id: int = field(default_factory=itertools.count().__next__)


@dataclass
class GatewayResponse:
    """The gateway's answer (status mirrors HTTP semantics)."""

    request_id: int
    status: int
    body: Dict[str, object] = field(default_factory=dict)
    error: Optional[BaseException] = None

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300


class RequestState(str, Enum):
    QUEUED = "queued"
    DISPATCHING = "dispatching"
    EXECUTING = "executing"
    OK = "ok"
    #: Rejected by a pre-dispatch decision; never touched the backend.
    REJECTED = "rejected"
    #: Deadline expired while queued or between dispatch retries.
    TIMED_OUT = "timed_out"
    #: Executed but the collective aborted, or dispatch raised a hard error.
    FAILED = "failed"


@dataclass
class GatewayRecord:
    """Ledger entry of one data-path request.

    The ledger outlives the request, so a settled record keeps scalars
    only: ``request`` (the tenant's payload) and ``respond`` are dropped
    when it settles, and the collective instance is never stored here.
    """

    request: Optional[GatewayRequest]
    tenant: str
    qos: str
    accepted_at: float
    state: RequestState = RequestState.QUEUED
    deadline: float = 0.0
    finished_at: Optional[float] = None
    error: Optional[BaseException] = None
    retries: int = 0
    #: Admitted as a half-open breaker probe.
    probe: bool = False
    respond: Optional[Callable[[GatewayResponse], None]] = None

    @property
    def done(self) -> bool:
        return self.state in (
            RequestState.OK,
            RequestState.REJECTED,
            RequestState.TIMED_OUT,
            RequestState.FAILED,
        )


@dataclass(frozen=True)
class GatewayPolicy:
    """Deployment-wide gateway knobs.

    Attributes:
        queue_capacity: Bound of each QoS class queue.
        max_inflight: Shared dispatch slots (the global bulkhead pool).
        default_deadline: Request deadline when the tenant names none.
        retry: Backoff for transient dispatch failures.
        breaker: Per-tenant circuit-breaker policy.
        brownout: Load watermarks for graceful shedding.
    """

    queue_capacity: int = 64
    max_inflight: int = 64
    default_deadline: float = 1.0
    retry: GatewayRetryPolicy = field(default_factory=GatewayRetryPolicy)
    breaker: BreakerPolicy = field(default_factory=BreakerPolicy)
    brownout: BrownoutPolicy = field(default_factory=BrownoutPolicy)


@dataclass
class _Session:
    """Gateway-side state of one authenticated tenant."""

    account: TenantAccount
    client: MccsClient
    bucket: TokenBucket
    breaker: CircuitBreaker
    queued: int = 0
    inflight: int = 0


class ServiceGateway:
    """The tenant-facing front door of one deployment."""

    def __init__(
        self,
        deployment: "MccsDeployment",
        policy: Optional[GatewayPolicy] = None,
        *,
        registry: Optional[TenantRegistry] = None,
        secret: str = "mccs",
    ) -> None:
        self.deployment = deployment
        self.sim = deployment.sim
        self.policy = policy or GatewayPolicy()
        self.registry = (
            registry
            if registry is not None
            else TenantRegistry(deployment, secret=secret)
        )
        self.telemetry = deployment.telemetry()
        self.brownout = BrownoutController(policy=self.policy.brownout)
        self.alive = True
        self.crashes = 0
        self.restarts = 0
        self._sessions: Dict[str, _Session] = {}
        self._queues: Dict[str, Deque[GatewayRecord]] = {
            qos: deque() for qos in self.policy.brownout.priority
        }
        self._inflight = 0
        self._pump_scheduled = False
        self._rng = random.Random(0xF1EE7)
        self._counted_trips: Dict[str, int] = {}
        #: Full request ledger, and the disjoint outcome sets the
        #: robustness property suite checks.
        self.records: List[GatewayRecord] = []
        self.rejected_ids: Set[int] = set()
        self.executed_ids: Set[int] = set()
        self._routes: Dict[Tuple[str, str], Tuple[Callable, bool]] = {
            # (method, path) -> (handler, needs_auth)
            ("GET", "/v1/health"): (self._route_health, False),
            ("POST", "/v1/buffers"): (self._route_alloc, True),
            ("POST", "/v1/comms"): (self._route_create_comm, True),
            ("POST", "/v1/comms/destroy"): (self._route_destroy_comm, True),
            ("GET", "/v1/slo"): (self._route_slo, True),
        }
        deployment.gateway = self

    # ------------------------------------------------------------------
    # tenant management (provider side)
    # ------------------------------------------------------------------
    def register_tenant(
        self, tenant_id: str, quota: Optional[TenantQuota] = None
    ) -> TenantAccount:
        """Register a tenant, sync its QoS class into admission control."""
        account = self.registry.register(tenant_id, quota)
        if self.deployment.admission is not None:
            self.deployment.admission.set_class(tenant_id, account.quota.qos_class)
        self.telemetry.metrics.gauge(
            "mccs_gateway_tenants",
            "Tenant accounts currently registered with the gateway.",
        ).set(len(self.registry))
        return account

    def revoke_tenant(self, tenant_id: str) -> None:
        self.registry.revoke(tenant_id)
        self._sessions.pop(tenant_id, None)
        self.telemetry.metrics.gauge(
            "mccs_gateway_tenants",
            "Tenant accounts currently registered with the gateway.",
        ).set(len(self.registry))

    def _session(self, account: TenantAccount) -> _Session:
        session = self._sessions.get(account.tenant_id)
        if session is None:
            session = _Session(
                account=account,
                client=self.deployment.connect(account.tenant_id),
                bucket=TokenBucket(
                    account.quota.rate, account.quota.burst, now=self.sim.now
                ),
                breaker=CircuitBreaker(self.policy.breaker),
            )
            self._sessions[account.tenant_id] = session
        return session

    def session_of(self, tenant_id: str) -> _Session:
        """The live session of a registered tenant (tests/loadgen)."""
        return self._session(self.registry.account(tenant_id))

    def breaker_of(self, tenant_id: str) -> CircuitBreaker:
        return self.session_of(tenant_id).breaker

    # ------------------------------------------------------------------
    # request entry point (called by the transport)
    # ------------------------------------------------------------------
    def handle(
        self,
        request: GatewayRequest,
        respond: Callable[[GatewayResponse], None],
    ) -> None:
        try:
            self._handle(request, respond)
        except GatewayError as exc:
            respond(
                GatewayResponse(
                    request_id=request.request_id,
                    status=exc.status,
                    error=exc,
                )
            )

    def _handle(
        self,
        request: GatewayRequest,
        respond: Callable[[GatewayResponse], None],
    ) -> None:
        if not self.alive:
            self._count_request(request, 503)
            respond(
                GatewayResponse(
                    request_id=request.request_id,
                    status=503,
                    error=ServiceUnavailableError("gateway is down"),
                )
            )
            return
        if request.method == "POST" and request.path == "/v1/collectives":
            self._accept_collective(request, respond)
            return
        entry = self._routes.get((request.method, request.path))
        if entry is None:
            self._count_request(request, 404)
            raise UnknownRouteError(
                f"no route for {request.method} {request.path}"
            )
        handler, needs_auth = entry
        session = None
        if needs_auth:
            try:
                account = self.registry.authenticate(request.api_key)
            except AuthenticationError:
                self._count_request(request, 401)
                self._count_rejection("auth", "unknown")
                raise
            session = self._session(account)
            if not session.bucket.try_take(self.sim.now):
                self._throttle(request, session)
        try:
            body = handler(session, request)
        except GatewayError as exc:
            self._count_request(request, exc.status)
            raise
        except ServiceUnavailableError as exc:
            # Control-plane routes answer a down host synchronously; the
            # tenant (or its shim) owns the retry.
            self._count_request(request, 503)
            respond(
                GatewayResponse(
                    request_id=request.request_id, status=503, error=exc
                )
            )
            return
        except ReproError as exc:
            self._count_request(request, 400)
            respond(
                GatewayResponse(
                    request_id=request.request_id, status=400, error=exc
                )
            )
            return
        self._count_request(request, 200)
        respond(
            GatewayResponse(request_id=request.request_id, status=200, body=body)
        )

    # ------------------------------------------------------------------
    # data path: the robustness stack
    # ------------------------------------------------------------------
    def _accept_collective(
        self,
        request: GatewayRequest,
        respond: Callable[[GatewayResponse], None],
    ) -> None:
        try:
            account = self.registry.authenticate(request.api_key)
        except AuthenticationError:
            self._count_request(request, 401)
            self._count_rejection("auth", "unknown")
            raise
        session = self._session(account)
        qos = account.quota.qos_class
        now = self.sim.now

        # 1. brownout: deployment-wide graceful shedding by class.
        if self.brownout.sheds(qos):
            self._count_request(request, 503)
            self._count_rejection("brownout", qos)
            self._reject(request, qos)
            self.telemetry.slo.record_shed(account.tenant_id)
            raise BrownoutShedError(
                f"brownout level {self.brownout.level}: shedding {qos!r} traffic"
            )
        # 2. per-tenant token-bucket rate limit.
        if not session.bucket.try_take(now):
            self._reject(request, qos)
            self._throttle(request, session)
        # 3. explicit backpressure: bounded class queue + per-tenant bound.
        queue = self._queue_for(qos)
        if len(queue) >= self.policy.queue_capacity:
            self._count_request(request, 503)
            self._count_rejection("backpressure", qos)
            self._reject(request, qos)
            raise BackpressureError(
                f"{qos!r} queue is full ({self.policy.queue_capacity} waiting)"
            )
        if session.queued >= account.quota.max_queued:
            self._count_request(request, 503)
            self._count_rejection("backpressure", qos)
            self._reject(request, qos)
            raise BackpressureError(
                f"tenant {account.tenant_id!r} already has {session.queued} "
                "request(s) queued"
            )
        # 4. circuit breaker (checked last: a granted half-open probe slot
        # is guaranteed to be enqueued).
        if not session.breaker.allow(now):
            self._count_request(request, 503)
            self._count_rejection("breaker", qos)
            self._reject(request, qos)
            raise CircuitOpenError(
                f"circuit of {account.tenant_id!r} is "
                f"{session.breaker.state.value}"
            )
        probe = session.breaker.state.value == "half_open"

        ttl = request.ttl if request.ttl is not None else self.policy.default_deadline
        record = GatewayRecord(
            request=request,
            tenant=account.tenant_id,
            qos=qos,
            accepted_at=now,
            deadline=now + ttl,
            probe=probe,
            respond=respond,
        )
        self.records.append(record)
        queue.append(record)
        session.queued += 1
        self._arm_deadline(record)
        self._update_queue_gauges()
        self._update_brownout()
        self._schedule_pump()

    def _queue_for(self, qos: str) -> Deque[GatewayRecord]:
        queue = self._queues.get(qos)
        if queue is None:
            # Unknown class: rides the lowest-priority queue.
            queue = self._queues[self.policy.brownout.priority[-1]]
        return queue

    def _throttle(self, request: GatewayRequest, session: _Session) -> None:
        retry_after = session.bucket.retry_after(self.sim.now)
        qos = session.account.quota.qos_class
        self._count_request(request, 429)
        self._count_rejection("throttle", qos)
        self.telemetry.metrics.counter(
            "mccs_gateway_throttled_total",
            "Requests rejected by per-tenant token-bucket rate limiting.",
        ).inc(qos=qos)
        raise RateLimitedError(
            f"tenant {session.account.tenant_id!r} over its "
            f"{session.bucket.rate:g} req/s quota",
            retry_after=retry_after,
        )

    # ------------------------------------------------------------------
    # dispatch pump: bulkhead-bounded, priority-ordered
    # ------------------------------------------------------------------
    def _schedule_pump(self) -> None:
        if self._pump_scheduled:
            return
        self._pump_scheduled = True
        self.sim.call_in(0.0, self._pump)

    def _pump(self) -> None:
        self._pump_scheduled = False
        if not self.alive:
            return
        while self._inflight < self.policy.max_inflight:
            record = self._next_dispatchable()
            if record is None:
                break
            self._dispatch(record)
        self._update_queue_gauges()
        self._update_brownout()

    def _next_dispatchable(self) -> Optional[GatewayRecord]:
        """Head-most eligible request, classes in priority order.

        Requests of tenants at their bulkhead width are *skipped, not
        popped*: a stuck tenant's backlog stays queued (bounded by its
        ``max_queued``) while other tenants' requests flow past it —
        per-tenant FIFO order is preserved because only that tenant's
        entries are skipped.
        """
        for qos in self.policy.brownout.priority:
            queue = self._queues[qos]
            for index, record in enumerate(queue):
                session = self._sessions[record.tenant]
                if session.inflight >= session.account.quota.max_inflight:
                    continue
                del queue[index]
                return record
        return None

    def _dispatch(self, record: GatewayRecord) -> None:
        session = self._sessions[record.tenant]
        session.queued -= 1
        session.inflight += 1
        self._inflight += 1
        record.state = RequestState.DISPATCHING
        self.telemetry.metrics.gauge(
            "mccs_gateway_inflight",
            "Data-path requests occupying gateway dispatch slots.",
        ).set(self._inflight)
        self._attempt(record, attempt=0)

    def _attempt(self, record: GatewayRecord, attempt: int) -> None:
        if record.done:
            return
        session = self._sessions[record.tenant]
        try:
            creq, comm = self._build_collective(session, record.request)
        except GatewayError as exc:
            self._finish_dispatch(
                record, RequestState.FAILED, exc.status, error=exc
            )
            return
        try:
            queue = self.deployment.service_of_gpu(comm.gpus[0]).frontend_for(
                record.tenant, self.deployment
            ).queue
            response = queue.call(creq)
        except ServiceUnavailableError as exc:
            self._retry_or_expire(record, attempt, exc)
            return
        except AdmissionRejectedError as exc:
            # The admission backstop shed it before issuing: a decision,
            # not a failure — rejected, never executed, never retried.
            self._count_rejection("admission", record.qos)
            self._reject_record(record, 503, exc)
            return
        except ReproError as exc:
            # Hard 5xx (e.g. the communicator was aborted by recovery):
            # feeds the breaker.
            session.breaker.record_failure(self.sim.now)
            self._note_breaker(session)
            self._finish_dispatch(
                record, RequestState.FAILED, 500, error=exc
            )
            return
        assert isinstance(response, CollectiveResponse)
        record.state = RequestState.EXECUTING
        record.retries = attempt
        self.executed_ids.add(record.request.request_id)
        MccsClient._chain_callback(
            response.instance,
            lambda inst, now: self._completed(record, inst, now),
        )

    def _retry_or_expire(
        self, record: GatewayRecord, attempt: int, error: BaseException
    ) -> None:
        """Transient dispatch failure: capped-exponential retry within the
        request deadline."""
        now = self.sim.now
        retry = self.policy.retry
        delay = retry.delay(attempt, self._rng)
        if attempt + 1 > retry.max_retries or now + delay > record.deadline:
            session = self._sessions[record.tenant]
            session.breaker.record_failure(now)
            self._note_breaker(session)
            self._count_timeout(record.qos)
            self._finish_dispatch(
                record,
                RequestState.TIMED_OUT,
                504,
                error=GatewayTimeoutError(
                    f"request {record.request.request_id} gave up after "
                    f"{attempt + 1} attempt(s): {error}"
                ),
            )
            return
        record.retries = attempt + 1
        self.telemetry.metrics.counter(
            "mccs_gateway_retries_total",
            "Dispatch attempts re-queued after transient backend failures.",
        ).inc(qos=record.qos)
        self.telemetry.slo.record_retry(record.tenant)
        self.sim.call_in(delay, lambda: self._attempt(record, attempt + 1))

    def _buffer(self, session: _Session, buffer_id: int):
        """Resolve a buffer id, re-adopting the live allocation when the
        session shim is fresh (buffer handles are volatile gateway state;
        the allocation itself is durable service state)."""
        buf = session.client.buffers.get(buffer_id)
        if buf is None:
            buf = session.client.adopt_buffer(buffer_id)
        return buf

    def _build_collective(
        self, session: _Session, request: GatewayRequest
    ) -> Tuple[CollectiveRequest, object]:
        body = request.body
        try:
            comm_id = int(body["comm"])
            kind = _KINDS[str(body.get("kind", "all_reduce"))]
            nbytes = int(body["nbytes"])
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidRequestError(f"bad collective body: {exc}") from None
        comm = session.client.communicators.get(comm_id)
        if comm is None and comm_id in session.account.comm_ids:
            # Session shims are volatile gateway state (rebuilt after a
            # restart); ownership is durable, so re-adopt the live comm.
            try:
                comm = session.client.adopt_communicator(comm_id)
            except ReproError:
                comm = None
        if comm is None:
            raise InvalidRequestError(
                f"tenant {session.account.tenant_id!r} holds no communicator "
                f"{comm_id}"
            )
        send_refs: Tuple = ()
        recv_refs: Tuple = ()
        send_ids = body.get("send_buffers")
        recv_ids = body.get("recv_buffers")
        if send_ids:
            try:
                expected = input_bytes(kind, nbytes, comm.world)
                send_refs = tuple(
                    self._buffer(session, int(b)).ref(nbytes=expected)
                    for b in send_ids  # type: ignore[union-attr]
                )
                if recv_ids:
                    recv_refs = tuple(
                        self._buffer(session, int(b)).ref(nbytes=nbytes)
                        for b in recv_ids  # type: ignore[union-attr]
                    )
            except ReproError as exc:
                raise InvalidRequestError(f"unknown buffer: {exc}") from None
        creq = CollectiveRequest(
            comm_id=comm_id,
            kind=kind,
            out_bytes=nbytes,
            send_refs=send_refs,
            recv_refs=recv_refs,
            root=int(body.get("root", 0)),
        )
        return creq, comm

    # ------------------------------------------------------------------
    # completion / terminal transitions
    # ------------------------------------------------------------------
    def _completed(
        self, record: GatewayRecord, instance: "CollectiveInstance", now: float
    ) -> None:
        if record.done:
            return
        session = self._sessions.get(record.tenant)
        if instance.aborted:
            if session is not None:
                session.breaker.record_failure(now)
                self._note_breaker(session)
            self._finish_dispatch(
                record,
                RequestState.FAILED,
                500,
                error=instance.error
                if instance.error is not None
                else instance.comm.abort_error,
                body={"seq": instance.seq, "aborted": True},
            )
            return
        if session is not None:
            session.breaker.record_success(now)
            self._note_breaker(session)
        self.telemetry.metrics.histogram(
            "mccs_gateway_request_seconds",
            "End-to-end gateway latency of completed data-path requests.",
        ).observe(now - record.accepted_at, qos=record.qos)
        self._finish_dispatch(
            record,
            RequestState.OK,
            200,
            body={
                "seq": instance.seq,
                "duration_s": instance.duration(),
                "retries": record.retries,
            },
        )

    def _finish_dispatch(
        self,
        record: GatewayRecord,
        state: RequestState,
        status: int,
        *,
        error: Optional[BaseException] = None,
        body: Optional[Dict[str, object]] = None,
    ) -> None:
        """Terminal transition of a record holding a dispatch slot."""
        session = self._sessions.get(record.tenant)
        if session is not None:
            session.inflight = max(0, session.inflight - 1)
        self._inflight = max(0, self._inflight - 1)
        self._settle(record, state, status, error=error, body=body)
        self._schedule_pump()

    def _reject_record(
        self, record: GatewayRecord, status: int, error: BaseException
    ) -> None:
        """Terminal rejection of a record holding a dispatch slot (the
        admission backstop): rejected, never executed."""
        session = self._sessions.get(record.tenant)
        if session is not None:
            session.inflight = max(0, session.inflight - 1)
            if record.probe:
                session.breaker.abandon(self.sim.now)
        self._inflight = max(0, self._inflight - 1)
        self.rejected_ids.add(record.request.request_id)
        self._settle(record, RequestState.REJECTED, status, error=error)
        self._schedule_pump()

    def _settle(
        self,
        record: GatewayRecord,
        state: RequestState,
        status: int,
        *,
        error: Optional[BaseException] = None,
        body: Optional[Dict[str, object]] = None,
    ) -> None:
        record.state = state
        record.error = error
        record.finished_at = self.sim.now
        self._count_request(record.request, status)
        self.telemetry.metrics.gauge(
            "mccs_gateway_inflight",
            "Data-path requests occupying gateway dispatch slots.",
        ).set(self._inflight)
        self._update_brownout()
        request, respond = record.request, record.respond
        record.request = record.respond = None
        if respond is not None:
            respond(
                GatewayResponse(
                    request_id=request.request_id,
                    status=status,
                    body=body or {},
                    error=error,
                )
            )

    def _reject(self, request: GatewayRequest, qos: str) -> None:
        """Ledger bookkeeping of a pre-queue rejection (raised by caller)."""
        self.rejected_ids.add(request.request_id)

    # ------------------------------------------------------------------
    # deadlines
    # ------------------------------------------------------------------
    def _arm_deadline(self, record: GatewayRecord) -> None:
        def expired() -> None:
            if record.done or record.state is RequestState.EXECUTING:
                # Executed requests run to completion; the deadline only
                # governs the pre-execution phases.
                return
            session = self._sessions.get(record.tenant)
            if record.state is RequestState.QUEUED:
                queue = self._queue_for(record.qos)
                try:
                    queue.remove(record)
                except ValueError:
                    pass
                if session is not None:
                    session.queued = max(0, session.queued - 1)
                    if record.probe:
                        session.breaker.abandon(self.sim.now)
                self._count_timeout(record.qos)
                self.rejected_ids.add(record.request.request_id)
                self._settle(
                    record,
                    RequestState.TIMED_OUT,
                    504,
                    error=GatewayTimeoutError(
                        f"request {record.request.request_id} expired after "
                        f"{record.deadline - record.accepted_at:g}s in queue"
                    ),
                )
                self._update_queue_gauges()
                self._schedule_pump()
            # DISPATCHING between retries: the retry path checks the
            # deadline itself before re-arming, so nothing to do here.

        self.sim.schedule(record.deadline, expired)

    def _count_timeout(self, qos: str) -> None:
        self.telemetry.metrics.counter(
            "mccs_gateway_timeouts_total",
            "Requests whose deadline expired before execution.",
        ).inc(qos=qos)

    # ------------------------------------------------------------------
    # brownout
    # ------------------------------------------------------------------
    def load(self) -> float:
        """Occupancy fraction of the gateway's shared capacity."""
        queued = sum(len(q) for q in self._queues.values())
        capacity = self.policy.max_inflight + self.policy.queue_capacity * len(
            self._queues
        )
        return (self._inflight + queued) / capacity if capacity else 0.0

    def _update_brownout(self) -> None:
        before = self.brownout.level
        level = self.brownout.update(self.load(), self.sim.now)
        self.telemetry.metrics.gauge(
            "mccs_gateway_brownout_level",
            "Current brownout level (0 = none; level k sheds the k "
            "lowest-priority QoS classes).",
        ).set(level)
        if level == before:
            return
        self.telemetry.metrics.counter(
            "mccs_gateway_brownout_transitions_total",
            "Brownout level changes, by direction.",
        ).inc(direction="up" if level > before else "down")
        self.telemetry.events.log(
            self.sim.now,
            "brownout",
            f"gateway brownout level {before} -> {level} "
            f"(load {self.load():.2f})",
            level=level,
        )
        if level > before:
            self._drain_shed_classes()

    def _drain_shed_classes(self) -> None:
        """On a level raise, already-queued requests of now-shed classes
        are answered immediately (typed 503) instead of rotting."""
        for qos in self.policy.brownout.priority:
            if not self.brownout.sheds(qos):
                continue
            queue = self._queues[qos]
            while queue:
                record = queue.popleft()
                session = self._sessions.get(record.tenant)
                if session is not None:
                    session.queued = max(0, session.queued - 1)
                    if record.probe:
                        session.breaker.abandon(self.sim.now)
                self._count_rejection("brownout", qos)
                self.telemetry.slo.record_shed(record.tenant)
                self.rejected_ids.add(record.request.request_id)
                self._settle(
                    record,
                    RequestState.REJECTED,
                    503,
                    error=BrownoutShedError(
                        f"brownout level {self.brownout.level}: shedding "
                        f"{qos!r} traffic"
                    ),
                )
        self._update_queue_gauges()

    # ------------------------------------------------------------------
    # crash / restart (registry replay)
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Kill the gateway process.  Queued requests die typed; executing
        requests drain (their collectives already run in the control
        plane); the tenant registry survives in the journal."""
        if not self.alive:
            return
        self.alive = False
        self.crashes += 1
        for queue in self._queues.values():
            while queue:
                record = queue.popleft()
                session = self._sessions.get(record.tenant)
                if session is not None:
                    session.queued = max(0, session.queued - 1)
                    if record.probe:
                        session.breaker.abandon(self.sim.now)
                self._count_rejection("crash", record.qos)
                self.rejected_ids.add(record.request.request_id)
                self._settle(
                    record,
                    RequestState.REJECTED,
                    503,
                    error=ServiceUnavailableError("gateway crashed"),
                )
        self.telemetry.events.log(
            self.sim.now, "gateway_crashed", "service gateway crashed"
        )

    def restart(self) -> int:
        """Restart the gateway, rebuilding the tenant registry purely from
        the journal; returns the number of restored accounts."""
        if self.alive:
            return 0
        self.registry = TenantRegistry.restore(
            self.deployment, secret=self.registry.secret
        )
        self._sessions.clear()
        if self.deployment.admission is not None:
            for account in self.registry.accounts():
                self.deployment.admission.set_class(
                    account.tenant_id, account.quota.qos_class
                )
        # Re-attach live communicators to their owning accounts (their
        # ownership is journaled control-plane state, not gateway state).
        accounts = {a.tenant_id: a for a in self.registry.accounts()}
        for comm in self.deployment.communicators():
            account = accounts.get(comm.app_id)
            if account is not None and comm.comm_id not in account.comm_ids:
                account.comm_ids.append(comm.comm_id)
        self.alive = True
        self.restarts += 1
        self.telemetry.events.log(
            self.sim.now,
            "gateway_restarted",
            f"service gateway restored {len(self.registry)} tenant(s) "
            "from the journal",
        )
        self._schedule_pump()
        return len(self.registry)

    # ------------------------------------------------------------------
    # control routes
    # ------------------------------------------------------------------
    def _route_health(
        self, session: Optional[_Session], request: GatewayRequest
    ) -> Dict[str, object]:
        return {
            "alive": self.alive,
            "tenants": len(self.registry),
            "inflight": self._inflight,
            "queued": {qos: len(q) for qos, q in self._queues.items()},
            "brownout_level": self.brownout.level,
            "load": self.load(),
        }

    def _route_alloc(
        self, session: _Session, request: GatewayRequest
    ) -> Dict[str, object]:
        body = request.body
        try:
            gpu = self.deployment.cluster.gpu(int(body["gpu"]))
            size = int(body["size"])
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidRequestError(f"bad alloc body: {exc}") from None
        buf = session.client.alloc(gpu, size)
        fill = body.get("fill")
        if fill is not None:
            buf.view(np.float32)[:] = float(fill)  # type: ignore[arg-type]
        return {"buffer_id": buf.buffer_id, "size": buf.size}

    def _route_create_comm(
        self, session: _Session, request: GatewayRequest
    ) -> Dict[str, object]:
        body = request.body
        try:
            gpu_ids = [int(g) for g in body["gpus"]]  # type: ignore[union-attr]
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidRequestError(f"bad communicator body: {exc}") from None
        account = session.account
        live = [
            comm_id
            for comm_id in account.comm_ids
            if comm_id in session.client.communicators
        ]
        if len(live) >= account.quota.max_communicators:
            raise InvalidRequestError(
                f"tenant {account.tenant_id!r} is at its "
                f"{account.quota.max_communicators}-communicator quota"
            )
        gpus = [self.deployment.cluster.gpu(g) for g in gpu_ids]
        comm = session.client.create_communicator(gpus)
        account.comm_ids.append(comm.comm_id)
        return {"comm_id": comm.comm_id, "world": comm.world}

    def _route_destroy_comm(
        self, session: _Session, request: GatewayRequest
    ) -> Dict[str, object]:
        try:
            comm_id = int(request.body["comm"])
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidRequestError(f"bad destroy body: {exc}") from None
        comm = session.client.communicators.get(comm_id)
        if comm is None:
            raise InvalidRequestError(
                f"tenant {session.account.tenant_id!r} holds no communicator "
                f"{comm_id}"
            )
        session.client.destroy_communicator(comm)
        if comm_id in session.account.comm_ids:
            session.account.comm_ids.remove(comm_id)
        return {"destroyed": comm_id}

    def _route_slo(
        self, session: _Session, request: GatewayRequest
    ) -> Dict[str, object]:
        report = self.telemetry.slo.report()
        tenant_report = report.get(session.account.tenant_id, {})
        return {"tenant": session.account.tenant_id, "slo": tenant_report}

    # ------------------------------------------------------------------
    # metrics plumbing
    # ------------------------------------------------------------------
    def _count_request(self, request: GatewayRequest, status: int) -> None:
        self.telemetry.metrics.counter(
            "mccs_gateway_requests_total",
            "Requests answered by the gateway, by route and status code.",
        ).inc(route=f"{request.method} {request.path}", code=status)

    def _count_rejection(self, reason: str, qos: str) -> None:
        self.telemetry.metrics.counter(
            "mccs_gateway_rejections_total",
            "Typed gateway rejections (decisions, never executed), by "
            "reason and QoS class.",
        ).inc(reason=reason, qos=qos)

    def _note_breaker(self, session: _Session) -> None:
        breaker = session.breaker
        open_count = sum(
            1 for s in self._sessions.values() if s.breaker.open
        )
        self.telemetry.metrics.gauge(
            "mccs_gateway_breaker_open",
            "Tenant circuit breakers currently open.",
        ).set(open_count)
        tenant_id = session.account.tenant_id
        new_trips = breaker.trips - self._counted_trips.get(tenant_id, 0)
        if new_trips > 0:
            self._counted_trips[tenant_id] = breaker.trips
            self.telemetry.metrics.counter(
                "mccs_gateway_breaker_trips_total",
                "Circuit-breaker trips, by QoS class.",
            ).inc(new_trips, qos=session.account.quota.qos_class)
            self.telemetry.events.log(
                self.sim.now,
                "breaker_tripped",
                f"circuit of tenant {tenant_id!r} opened",
                tenant=tenant_id,
            )

    def _update_queue_gauges(self) -> None:
        gauge = self.telemetry.metrics.gauge(
            "mccs_gateway_queue_depth",
            "Requests waiting in the gateway's bounded class queues.",
        )
        for qos, queue in self._queues.items():
            gauge.set(len(queue), qos=qos)

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """JSON-ready gateway statistics for experiments."""
        by_state: Dict[str, int] = {}
        for record in self.records:
            by_state[record.state.value] = by_state.get(record.state.value, 0) + 1
        return {
            "tenants": len(self.registry),
            "requests": len(self.records),
            "by_state": by_state,
            "executed": len(self.executed_ids),
            "rejected": len(self.rejected_ids),
            "breaker_trips": sum(
                s.breaker.trips for s in self._sessions.values()
            ),
            "brownout_level": self.brownout.level,
            "brownout_transitions": len(self.brownout.transitions),
            "crashes": self.crashes,
            "restarts": self.restarts,
        }
