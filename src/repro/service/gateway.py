"""The service gateway: REST-shaped, robust front door to the control plane.

Request lifecycle (data path, ``POST /v1/collectives``)::

    transport -> auth -> brownout -> rate limit -> backpressure -> breaker
              -> class queue -> bulkhead dispatch -> frontend engine
              -> collective instance -> completion callback -> response

A request is *refused* at the door (a typed error raised before the queue,
which :meth:`ServiceGateway.handle` turns into the response) or *accepted*,
and from then on its :class:`GatewayRecord` is the state machine::

    state        holds                               leaves by
    QUEUED       a place in its class queue          pump -> DISPATCHING, or settle
    DISPATCHING  a dispatch slot (between retries)   issue -> EXECUTING, or settle
    EXECUTING    a dispatch slot, a live collective  settle (completion only)
    OK / REJECTED / TIMED_OUT / FAILED               terminal: holds nothing

:meth:`ServiceGateway._settle` is the only way into a terminal state: it
gives back what the current state holds, tells the tenant's breaker the
outcome (or returns an unused half-open probe slot), books the series,
counts the ledger and answers the tenant — once, whatever ended the
request.  A request that reached a frontend engine is *executed* and runs
to completion; only settles from QUEUED or DISPATCHING are rejections, so
no request is both.  Dispatch failures are split the way a real front
door splits them: a down host service is transient (capped-exponential
retry within the request deadline), an admission shed is a decision
(surfaced, never retried), anything else is a 5xx that feeds the tenant's
circuit breaker.

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
from typing import TYPE_CHECKING, Callable, Deque, Dict, Iterable, Optional, Tuple
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
from ..resilience import QOS_LADDER, Backoff
from ..telemetry.ringbuffer import RingBuffer
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
    BreakerState,
    BrownoutController,
    BrownoutPolicy,
    CircuitBreaker,
    TokenBucket,
)
from .registry import TenantAccount, TenantQuota, TenantRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.communicator import CollectiveInstance
    from ..core.deployment import MccsDeployment

_KINDS = {kind.value: kind for kind in Collective}

#: Records :attr:`ServiceGateway.records` keeps (newest last) — the causal
#: tracer's closed-trace window, so the ledger's tail and the exported
#: traces cover the same requests.
RECORDS_KEPT = 512


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


#: How the gateway answers: the transport's callback for one request.
Respond = Callable[[GatewayResponse], None]


class RequestState(str, Enum):
    QUEUED = "queued"
    DISPATCHING = "dispatching"
    EXECUTING = "executing"
    OK = "ok"
    #: Ended by a decision before it touched the backend.
    REJECTED = "rejected"
    #: Deadline expired while queued or between dispatch retries.
    TIMED_OUT = "timed_out"
    #: Executed but the collective aborted, or dispatch raised a hard error.
    FAILED = "failed"


TERMINAL = (
    RequestState.OK,
    RequestState.REJECTED,
    RequestState.TIMED_OUT,
    RequestState.FAILED,
)


@dataclass
class _Session:
    """Gateway-side state of one authenticated tenant."""

    account: TenantAccount
    client: MccsClient
    bucket: TokenBucket
    breaker: CircuitBreaker
    queued: int = 0
    inflight: int = 0


@dataclass(eq=False)
class GatewayRecord:
    """One accepted data-path request (see the module docstring).

    It is charged to the ``session`` that admitted it and gives back to
    *that* object, whatever became of the tenant's entry in the session
    table since (restart, revocation).  Settled, it keeps scalars only:
    payload, response channel and session are dropped.
    """

    request: Optional[GatewayRequest]
    respond: Optional[Respond]
    session: Optional[_Session]
    tenant: str
    qos: str
    accepted_at: float
    deadline: float
    #: Admitted as a half-open breaker probe.
    probe: bool = False
    state: RequestState = RequestState.QUEUED
    finished_at: Optional[float] = None
    retries: int = 0

    @property
    def done(self) -> bool:
        return self.state in TERMINAL


@dataclass(frozen=True)
class GatewayPolicy:
    """Deployment-wide gateway knobs.

    Attributes:
        queue_capacity: Bound of each QoS class queue.
        max_inflight: Shared dispatch slots (the global bulkhead pool).
        default_deadline: Request deadline when the tenant names none.
        retry: Backoff for transient dispatch failures, always within
            the request deadline (a retry that would land past it: 504).
        breaker: Per-tenant circuit-breaker policy.
        brownout: Load watermarks for graceful shedding.
    """

    queue_capacity: int = 64
    max_inflight: int = 64
    default_deadline: float = 1.0
    retry: Backoff = Backoff(max_retries=6)
    breaker: BreakerPolicy = field(default_factory=BreakerPolicy)
    brownout: BrownoutPolicy = field(default_factory=BrownoutPolicy)


class ServiceGateway:
    """The tenant-facing front door of one deployment."""

    def __init__(
        self,
        deployment: MccsDeployment,
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
            qos: deque() for qos in QOS_LADDER
        }
        self._queued = 0
        self._inflight = 0
        self._capacity = (
            self.policy.max_inflight + self.policy.queue_capacity * len(self._queues)
        )
        self._open_breakers = 0
        self._pump_scheduled = False
        self._rng = random.Random(0xF1EE7)
        #: The ledger.  Every data-path request is counted once: *refused*
        #: at the door, or accepted and then *settled* in one terminal state;
        #: ``executed`` counts those that reached a frontend engine, and
        #: ``records`` keeps the tail of the accepted ones for reports.
        self.refused = 0
        self.executed = 0
        self.settled: Dict[RequestState, int] = dict.fromkeys(TERMINAL, 0)
        self.records: RingBuffer[GatewayRecord] = RingBuffer(RECORDS_KEPT)
        self._routes: Dict[Tuple[str, str], Tuple[Callable, bool]] = {
            # (method, path) -> (handler, needs_auth)
            ("GET", "/v1/health"): (self._route_health, False),
            ("POST", "/v1/buffers"): (self._route_alloc, True),
            ("POST", "/v1/comms"): (self._route_create_comm, True),
            ("POST", "/v1/comms/destroy"): (self._route_destroy_comm, True),
            ("GET", "/v1/slo"): (self._route_slo, True),
        }
        # Every series the gateway exports is declared here, once; label
        # sets are bound on first use (:meth:`_series`).
        metrics = self.telemetry.metrics
        self._bound: Dict[tuple, object] = {}
        self._m_requests = metrics.counter(
            "mccs_gateway_requests_total",
            "Requests answered by the gateway, by route and status code.",
        )
        self._m_rejections = metrics.counter(
            "mccs_gateway_rejections_total",
            "Typed gateway rejections (decisions, never executed), by "
            "reason and QoS class.",
        )
        self._m_throttled = metrics.counter(
            "mccs_gateway_throttled_total",
            "Requests rejected by per-tenant token-bucket rate limiting.",
        )
        self._m_retries = metrics.counter(
            "mccs_gateway_retries_total",
            "Dispatch attempts re-queued after transient backend failures.",
        )
        self._m_timeouts = metrics.counter(
            "mccs_gateway_timeouts_total",
            "Requests whose deadline expired before execution.",
        )
        self._m_latency = metrics.histogram(
            "mccs_gateway_request_seconds",
            "End-to-end gateway latency of completed data-path requests.",
        )
        self._m_queue_depth = metrics.gauge(
            "mccs_gateway_queue_depth",
            "Requests waiting in the gateway's bounded class queues.",
        )
        self._m_inflight = metrics.gauge(
            "mccs_gateway_inflight",
            "Data-path requests occupying gateway dispatch slots.",
        ).labels()
        self._m_tenants = metrics.gauge(
            "mccs_gateway_tenants",
            "Tenant accounts currently registered with the gateway.",
        ).labels()
        self._m_brownout_level = metrics.gauge(
            "mccs_gateway_brownout_level",
            "Current brownout level (0 = none; level k sheds the k "
            "lowest-priority QoS classes).",
        ).labels()
        self._m_brownout_transitions = metrics.counter(
            "mccs_gateway_brownout_transitions_total",
            "Brownout level changes, by direction.",
        )
        self._m_breaker_open = metrics.gauge(
            "mccs_gateway_breaker_open",
            "Tenant circuit breakers currently open.",
        ).labels()
        self._m_breaker_trips = metrics.counter(
            "mccs_gateway_breaker_trips_total",
            "Circuit-breaker trips, by QoS class.",
        )
        deployment.gateway = self

    def _series(self, metric, **labels: object):
        """``metric``'s series for ``labels``, bound on first use."""
        key = (metric, *labels.values())
        series = self._bound.get(key)
        if series is None:
            series = self._bound[key] = metric.labels(**labels)
        return series

    def _count_request(self, request: GatewayRequest, status: int) -> None:
        route = f"{request.method} {request.path}"
        self._series(self._m_requests, route=route, code=status).inc()

    def _count_rejection(
        self, reason: str, qos: str, tenant: Optional[str] = None
    ) -> None:
        self._series(self._m_rejections, reason=reason, qos=qos).inc()
        if reason == "brownout":
            # An SLO event of the tenant (admission books its own sheds).
            self.telemetry.slo.record_shed(tenant)

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
        self._m_tenants.set(len(self.registry))
        return account

    def revoke_tenant(self, tenant_id: str) -> None:
        """Close a tenant's account.  Its queued requests are answered 401
        now; those already holding a dispatch slot run to completion
        against the session they were charged to."""
        self.registry.revoke(tenant_id)
        self._m_tenants.set(len(self.registry))
        session = self._sessions.pop(tenant_id, None)
        if session is None:
            return
        if session.breaker.open:
            self._open_breakers -= 1
            self._m_breaker_open.set(self._open_breakers)
        for queue in self._queues.values():
            for record in [r for r in queue if r.session is session]:
                error = AuthenticationError(f"API key of {tenant_id!r} was revoked")
                self._settle(
                    record, RequestState.REJECTED, 401, error=error, reason="revoked"
                )

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

    def _breaker(self, session: _Session, step: Callable, now: float):
        """Every ``step`` of a tenant's breaker (``CircuitBreaker.allow``,
        ``record_success``, ...) goes through here, so whichever opens or
        trips it moves the open gauge (live sessions) and the trip count."""
        breaker = session.breaker
        was_open, trips = breaker.open, breaker.trips
        outcome = step(breaker, now)
        tenant_id = session.account.tenant_id
        if breaker.open != was_open and self._sessions.get(tenant_id) is session:
            self._open_breakers += 1 if breaker.open else -1
            self._m_breaker_open.set(self._open_breakers)
        if breaker.trips != trips:
            qos = session.account.quota.qos_class
            self._series(self._m_breaker_trips, qos=qos).inc(breaker.trips - trips)
            message = f"circuit of tenant {tenant_id!r} opened"
            self.telemetry.events.log(now, "breaker_tripped", message, tenant=tenant_id)
        return outcome

    # ------------------------------------------------------------------
    # request entry point (called by the transport)
    # ------------------------------------------------------------------
    def handle(self, request: GatewayRequest, respond: Respond) -> None:
        """Answer ``request`` now, unless the data path accepts it (then
        :meth:`_settle` will): the one place a raised error becomes a response."""
        data_path = request.method == "POST" and request.path == "/v1/collectives"
        body: Dict[str, object] = {}
        status, error = 200, None
        try:
            if not self.alive:
                raise ServiceUnavailableError("gateway is down")
            if data_path:
                self._accept_collective(request, respond)
                return
            body = self._control(request)
        except GatewayError as exc:
            status, error = exc.status, exc
        except ServiceUnavailableError as exc:
            # A down host or gateway answers at once; the tenant owns the retry.
            status, error = 503, exc
        except ReproError as exc:
            status, error = 400, exc
        if data_path:
            self.refused += 1
        self._count_request(request, status)
        respond(GatewayResponse(request.request_id, status, body, error))

    def _control(self, request: GatewayRequest) -> Dict[str, object]:
        """Control routes execute inline."""
        entry = self._routes.get((request.method, request.path))
        if entry is None:
            raise UnknownRouteError(f"no route for {request.method} {request.path}")
        handler, needs_auth = entry
        session = None
        if needs_auth:
            session = self._authenticate(request)
            if not session.bucket.try_take(self.sim.now):
                self._throttle(session)
        return handler(session, request)

    def _authenticate(self, request: GatewayRequest) -> _Session:
        try:
            account = self.registry.authenticate(request.api_key)
        except AuthenticationError:
            self._count_rejection("auth", "unknown")
            raise
        return self._session(account)

    def _throttle(self, session: _Session) -> None:
        qos = session.account.quota.qos_class
        self._count_rejection("throttle", qos)
        self._series(self._m_throttled, qos=qos).inc()
        raise RateLimitedError(
            f"tenant {session.account.tenant_id!r} over its "
            f"{session.bucket.rate:g} req/s quota",
            retry_after=session.bucket.retry_after(self.sim.now),
        )

    # ------------------------------------------------------------------
    # data path: the robustness stack
    # ------------------------------------------------------------------
    def _accept_collective(self, request: GatewayRequest, respond: Respond) -> None:
        """Refuse (raise typed) or enqueue one collective request."""
        session = self._authenticate(request)
        account = session.account
        qos = account.quota.qos_class
        now = self.sim.now

        # 1. brownout: deployment-wide graceful shedding by class.
        if self.brownout.sheds(qos):
            self._count_rejection("brownout", qos, account.tenant_id)
            raise self._shed_error(qos)
        # 2. per-tenant token-bucket rate limit.
        if not session.bucket.try_take(now):
            self._throttle(session)
        # 3. explicit backpressure: bounded class queue + per-tenant bound.
        name, queue = self._queue_for(qos)
        if len(queue) >= self.policy.queue_capacity:
            self._count_rejection("backpressure", qos)
            raise BackpressureError(
                f"{qos!r} queue is full ({self.policy.queue_capacity} waiting)"
            )
        if session.queued >= account.quota.max_queued:
            self._count_rejection("backpressure", qos)
            raise BackpressureError(
                f"tenant {account.tenant_id!r} already has {session.queued} "
                "request(s) queued"
            )
        # 4. circuit breaker (checked last: a granted half-open probe slot
        # is guaranteed to be enqueued).
        if not self._breaker(session, CircuitBreaker.allow, now):
            self._count_rejection("breaker", qos)
            raise CircuitOpenError(
                f"circuit of {account.tenant_id!r} is "
                f"{session.breaker.state.value}"
            )

        ttl = request.ttl if request.ttl is not None else self.policy.default_deadline
        record = GatewayRecord(
            request=request,
            respond=respond,
            session=session,
            tenant=account.tenant_id,
            qos=qos,
            accepted_at=now,
            deadline=now + ttl,
            probe=session.breaker.state is BreakerState.HALF_OPEN,
        )
        self.records.append(record)
        queue.append(record)
        session.queued += 1
        self._queued += 1
        self._series(self._m_queue_depth, qos=name).set(len(queue))
        # The timer holds the record, not the request: a settled record
        # has dropped its payload, so nothing is pinned until the deadline.
        self.sim.schedule(record.deadline, lambda: self._expire(record))
        self._update_brownout()
        self._schedule_pump()

    def _queue_for(self, qos: str) -> Tuple[str, Deque[GatewayRecord]]:
        """Name and deque of the class queue a ``qos`` request waits in
        (an unknown class rides the lowest-priority queue)."""
        if qos not in self._queues:
            qos = QOS_LADDER[-1]
        return qos, self._queues[qos]

    def _leave_queue(self, record: GatewayRecord) -> None:
        name, queue = self._queue_for(record.qos)
        queue.remove(record)
        record.session.queued -= 1
        self._queued -= 1
        self._series(self._m_queue_depth, qos=name).set(len(queue))

    def _expire(self, record: GatewayRecord) -> None:
        """Deadline timer.  Only a *queued* request expires here: the retry
        path checks the deadline itself, an executed request runs on."""
        if record.state is RequestState.QUEUED:
            error = GatewayTimeoutError(
                f"request {record.request.request_id} expired after "
                f"{record.deadline - record.accepted_at:g}s in queue"
            )
            self._settle(record, RequestState.TIMED_OUT, 504, error=error)

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
            self._leave_queue(record)
            record.state = RequestState.DISPATCHING
            record.session.inflight += 1
            self._inflight += 1
            self._m_inflight.set(self._inflight)
            self._attempt(record, attempt=0)

    def _next_dispatchable(self) -> Optional[GatewayRecord]:
        """Head-most eligible request, classes in priority order.

        Requests of tenants at their bulkhead width are *skipped, not
        taken*: a stuck tenant's backlog stays queued (bounded by its
        ``max_queued``) while other tenants' requests flow past it —
        per-tenant FIFO order is preserved because only that tenant's
        entries are skipped.
        """
        for qos in QOS_LADDER:
            for record in self._queues[qos]:
                session = record.session
                if session.inflight < session.account.quota.max_inflight:
                    return record
        return None

    def _attempt(self, record: GatewayRecord, attempt: int) -> None:
        try:
            creq, comm = self._build_collective(record.session, record.request)
        except GatewayError as exc:
            self._settle(record, RequestState.FAILED, exc.status, error=exc)
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
            self._settle(
                record, RequestState.REJECTED, 503, error=exc, reason="admission"
            )
            return
        except ReproError as exc:
            # Hard 5xx (e.g. the communicator was aborted by recovery):
            # feeds the breaker.
            self._settle(record, RequestState.FAILED, 500, error=exc, ok=False)
            return
        assert isinstance(response, CollectiveResponse)
        record.state = RequestState.EXECUTING
        record.retries = attempt
        self.executed += 1
        MccsClient._chain_callback(
            response.instance,
            lambda inst, now: self._completed(record, inst),
        )

    def _retry_or_expire(
        self, record: GatewayRecord, attempt: int, error: BaseException
    ) -> None:
        """Transient dispatch failure: capped-exponential retry within the
        request deadline."""
        retry = self.policy.retry
        delay = retry.delay(attempt, self._rng)
        if (
            attempt + 1 > retry.max_retries
            or self.sim.now + delay > record.deadline
        ):
            gave_up = GatewayTimeoutError(
                f"request {record.request.request_id} gave up after "
                f"{attempt + 1} attempt(s): {error}"
            )
            self._settle(
                record, RequestState.TIMED_OUT, 504, error=gave_up, ok=False
            )
            return
        record.retries = attempt + 1
        self._series(self._m_retries, qos=record.qos).inc()
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
    # the one exit
    # ------------------------------------------------------------------
    def _completed(self, record: GatewayRecord, instance: CollectiveInstance) -> None:
        body: Dict[str, object] = {"seq": instance.seq}
        if instance.aborted:
            error = instance.error
            if error is None:
                error = instance.comm.abort_error
            body["aborted"] = True
            self._settle(
                record, RequestState.FAILED, 500, error=error, body=body, ok=False
            )
        else:
            body.update(duration_s=instance.duration(), retries=record.retries)
            self._settle(record, RequestState.OK, 200, body=body, ok=True)

    def _settle(
        self,
        record: GatewayRecord,
        state: RequestState,
        status: int,
        *,
        error: Optional[BaseException] = None,
        body: Optional[Dict[str, object]] = None,
        ok: Optional[bool] = None,
        reason: Optional[str] = None,
    ) -> None:
        """End an accepted request: the only way into a terminal state.

        Args:
            ok: The backend's verdict for the tenant's breaker (success, or
                a 5xx/timeout failure); ``None`` when there is none (4xx,
                decisions) — a half-open probe slot is then freed uncounted.
            reason: ``mccs_gateway_rejections_total`` label when a decision,
                not an outcome, ends the request.
        """
        if record.done:
            return
        now = self.sim.now
        session = record.session
        if record.state is RequestState.QUEUED:
            self._leave_queue(record)
        else:
            session.inflight -= 1
            self._inflight -= 1
            self._m_inflight.set(self._inflight)
        if ok:
            self._breaker(session, CircuitBreaker.record_success, now)
        elif ok is not None:
            self._breaker(session, CircuitBreaker.record_failure, now)
        elif record.probe:
            self._breaker(session, CircuitBreaker.abandon, now)
        if reason is not None:
            self._count_rejection(reason, record.qos, record.tenant)
        if state is RequestState.TIMED_OUT:
            self._series(self._m_timeouts, qos=record.qos).inc()
        elif state is RequestState.OK:
            latency = self._series(self._m_latency, qos=record.qos)
            latency.observe(now - record.accepted_at)
        self.settled[state] += 1
        record.state = state
        record.finished_at = now
        request, respond = record.request, record.respond
        record.request = record.respond = record.session = None
        self._count_request(request, status)
        self._update_brownout()
        respond(GatewayResponse(request.request_id, status, body or {}, error))
        if self.alive:
            self._schedule_pump()

    def _drain(
        self,
        reason: str,
        error: Callable[[str], BaseException],
        classes: Iterable[str],
    ) -> None:
        """Answer every queued request of ``classes`` 503 with ``error(qos)``."""
        for qos in classes:
            queue = self._queues[qos]
            while queue:
                record = queue[0]
                self._settle(
                    record, RequestState.REJECTED, 503,
                    error=error(record.qos), reason=reason,
                )

    # ------------------------------------------------------------------
    # brownout
    # ------------------------------------------------------------------
    def load(self) -> float:
        """Occupancy fraction of the gateway's shared capacity."""
        load = self._inflight + self._queued
        return load / self._capacity if self._capacity else 0.0

    def _shed_error(self, qos: str) -> BrownoutShedError:
        return BrownoutShedError(
            f"brownout level {self.brownout.level}: shedding {qos!r} traffic"
        )

    def _update_brownout(self) -> None:
        """Re-evaluate the level after every change of :meth:`load`."""
        before = self.brownout.level
        level = self.brownout.update(self.load(), self.sim.now)
        if level == before:
            return
        self._m_brownout_level.set(level)
        direction = "up" if level > before else "down"
        self._series(self._m_brownout_transitions, direction=direction).inc()
        message = f"gateway brownout level {before} -> {level} (load {self.load():.2f})"
        self.telemetry.events.log(self.sim.now, "brownout", message, level=level)
        if level > before:
            # Queued requests of now-shed classes are answered too — each class
            # checked as the drain reaches it: the level can relax on the way.
            shed = (qos for qos in QOS_LADDER if self.brownout.sheds(qos))
            self._drain("brownout", self._shed_error, shed)

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
        self._drain(
            "crash",
            lambda qos: ServiceUnavailableError("gateway crashed"),
            self._queues,
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
        # Process state starts over; executing requests keep their session.
        self._sessions.clear()
        self._open_breakers = 0
        self._m_breaker_open.set(0)
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
    def stats(self) -> Dict[str, object]:
        """JSON-ready gateway statistics for experiments: the ledger."""
        by_state = {s.value: n for s, n in self.settled.items() if n}
        return {
            "tenants": len(self.registry),
            "refused": self.refused,
            "requests": sum(by_state.values()) + self._queued + self._inflight,
            "by_state": by_state,
            "executed": self.executed,
            "breaker_trips": int(self._m_breaker_trips.total()),
            "brownout_level": self.brownout.level,
            "brownout_transitions": len(self.brownout.transitions)
            + self.brownout.transitions.evicted,
            "crashes": self.crashes,
            "restarts": self.restarts,
        }
