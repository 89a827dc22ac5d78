"""The gateway record as a state machine: every state x every exit.

A request the gateway accepted holds something in each live state — a
queue place (QUEUED), a dispatch slot (DISPATCHING, here between two
retries, and EXECUTING) and possibly the tenant's half-open probe slot —
and ``ServiceGateway._settle`` is the one function that ends it.  Each
cell below puts one record into a state, strikes it with one cause, and
checks the exit the same way: answered exactly once with the typed
status, everything it held given back (session, gateway and queue
counters at their values from before the request, the probe slot free),
and the ledger one count richer in exactly one terminal state.
"""

import pytest

from repro.cluster.specs import testbed_cluster
from repro.core.admission import AdmissionPolicy
from repro.core.deployment import MccsDeployment
from repro.errors import CommunicatorError
from repro.service import (
    Backoff,
    BreakerPolicy,
    BreakerState,
    BrownoutPolicy,
    CircuitBreaker,
    GatewayClient,
    GatewayPolicy,
    InProcessTransport,
    ServiceGateway,
    TenantQuota,
)
from repro.service.gateway import RequestState

OK, REJECTED = RequestState.OK, RequestState.REJECTED
TIMED_OUT, FAILED = RequestState.TIMED_OUT, RequestState.FAILED

#: (state the record is in when the cause strikes, cause, terminal state,
#: status).  "queued" causes are in place before the pump first takes the
#: record; "retrying" ones strike between two dispatch attempts against a
#: down host service; a cause that cannot reach a state is not listed
#: (nothing but its completion ends an executing request).
CELLS = [
    ("queued", "ok", OK, 200),
    ("queued", "hard_5xx", FAILED, 500),
    ("queued", "invalid", FAILED, 400),
    ("queued", "admission", REJECTED, 503),
    ("queued", "retry_exhausted", TIMED_OUT, 504),
    ("queued", "expiry", TIMED_OUT, 504),
    ("queued", "brownout", REJECTED, 503),
    ("queued", "crash", REJECTED, 503),
    ("queued", "revoke", REJECTED, 401),
    ("retrying", "ok", OK, 200),
    ("retrying", "hard_5xx", FAILED, 500),
    ("retrying", "invalid", FAILED, 400),
    ("retrying", "admission", REJECTED, 503),
    ("retrying", "retry_exhausted", TIMED_OUT, 504),
    # A crashed gateway and a revoked tenant leave what already holds a
    # dispatch slot alone: it ends the way it would have.
    ("retrying", "crash", TIMED_OUT, 504),
    ("retrying", "revoke", TIMED_OUT, 504),
    ("executing", "ok", OK, 200),
    ("executing", "abort", FAILED, 500),
    ("executing", "crash", OK, 200),
    ("executing", "revoke", OK, 200),
]
#: Causes that need the record to sit in the queue: no dispatch slots.
HELD = ("expiry", "brownout", "crash", "revoke")
TENANT = "acme"


class Rig:
    """One deployment, one gateway, one low-class tenant with a 2-GPU
    communicator on host 0."""

    def __init__(self, *, held: bool, admission: bool) -> None:
        self.dep = MccsDeployment(testbed_cluster())
        if admission:
            self.dep.configure_admission(
                AdmissionPolicy(classes=(("high", 64), ("normal", 16), ("low", 1)))
            )
        self.gateway = ServiceGateway(
            self.dep,
            GatewayPolicy(
                queue_capacity=2,
                max_inflight=0 if held else 4,
                default_deadline=0.05,
                retry=Backoff(base=0.001, cap=0.002, jitter=0.0, max_retries=3),
                breaker=BreakerPolicy(window=4, min_samples=2, cooldown=0.01),
                # capacity is 6 (held) or 10: two queued requests of a held
                # rig cross the first mark, nothing else comes near it.
                brownout=BrownoutPolicy(watermarks=(0.3, 0.9), hysteresis=0.1),
            ),
        )
        self.transport = InProcessTransport(self.gateway)
        self.client = self.register(TENANT, "low")
        gpus = [g.global_id for g in self.dep.cluster.hosts[0].gpus[:2]]
        created = self.client.create_comm(gpus)
        self.dep.run()
        self.comm_id = created.response.body["comm_id"]
        self.session = self.gateway.session_of(TENANT)
        self.deliveries = []

    def register(self, tenant: str, qos: str) -> GatewayClient:
        account = self.gateway.register_tenant(
            tenant, TenantQuota(qos_class=qos, rate=1e6, burst=1e6)
        )
        return GatewayClient(self.transport, api_key=account.key.raw)

    def step(self, seconds: float) -> None:
        self.dep.run(until=self.dep.sim.now + seconds)

    def half_open(self) -> None:
        """Trip the tenant's breaker and wait out the cooldown: the next
        request is admitted as the half-open probe."""
        for _ in range(2):
            self.gateway._breaker(
                self.session, CircuitBreaker.record_failure, self.dep.sim.now
            )
        assert self.session.breaker.open
        self.step(0.011)

    def counters(self):
        depth = self.dep.telemetry().metrics.get("mccs_gateway_queue_depth")
        return {
            "session.queued": self.session.queued,
            "session.inflight": self.session.inflight,
            "gateway.inflight": self.gateway._inflight,
            "gateway.queued": self.gateway._queued,
            "queue": len(self.gateway._queues["low"]),
            "queue_depth{low}": depth.value(qos="low"),
            "probes": self.session.breaker._probes_inflight,
        }

    def submit(self, nbytes: int, ttl=None):
        call = self.client.collective(
            self.comm_id, nbytes, ttl=ttl, on_response=self.deliveries.append
        )
        self.step(0.0004)  # transport hop, accept, first pump
        return call, self.gateway.records[-1]

    # -- causes ----------------------------------------------------------
    def strike(self, cause: str) -> None:
        if cause == "hard_5xx" or cause == "abort":
            self.dep.communicator(self.comm_id).abort(CommunicatorError("poisoned"))
        elif cause == "invalid":
            # The tenant gave its communicator up: nothing to issue against.
            del self.session.client.communicators[self.comm_id]
            self.session.account.comm_ids.remove(self.comm_id)
        elif cause == "admission":
            # The tenant's own direct-shim collective on another host fills
            # its one-deep low-class quota behind the gateway's back.
            shim = self.dep.connect(TENANT)
            comm = shim.create_communicator(self.dep.cluster.hosts[1].gpus[:2])
            shim.all_reduce(comm, 256 << 20)
        elif cause == "crash":
            self.gateway.crash()
        elif cause == "revoke":
            self.gateway.revoke_tenant(TENANT)
        else:
            assert cause in ("ok", "retry_exhausted", "expiry"), cause


@pytest.mark.parametrize("probe", [False, True], ids=["plain", "probe"])
@pytest.mark.parametrize(
    "state,cause,terminal,status", CELLS, ids=[f"{c[0]}-{c[1]}" for c in CELLS]
)
def test_every_exit_gives_back_what_the_state_held(
    state, cause, terminal, status, probe
):
    rig = Rig(held=state == "queued" and cause in HELD, admission=cause == "admission")
    gateway, dep = rig.gateway, rig.dep
    if probe:
        rig.half_open()
    if cause == "brownout":
        # A queued high-class request: the next enqueue crosses the mark,
        # the level rises and the drain sheds the low class.
        rig.register("vip", "high").collective(rig.comm_id, 256, ttl=5.0)
        rig.step(0.0004)
    before, ledger = rig.counters(), dict(gateway.settled)

    if state == "queued":
        if cause == "retry_exhausted":
            dep.crash_service(0)
        elif cause not in HELD:
            rig.strike(cause)
        call, record = rig.submit(256, ttl=0.01 if cause == "expiry" else None)
        if cause in ("expiry", "crash", "revoke"):
            assert record.state is RequestState.QUEUED and rig.session.queued == 1
            rig.strike(cause)
    elif state == "retrying":
        dep.crash_service(0)
        call, record = rig.submit(256)
        assert record.state is RequestState.DISPATCHING and record.retries >= 1
        assert rig.session.inflight == 1 and gateway._inflight == 1
        rig.strike(cause)
        if cause not in ("retry_exhausted", "crash", "revoke"):
            dep.restart_service(0)
    else:
        call, record = rig.submit(1 << 30)
        assert record.state is RequestState.EXECUTING and gateway.executed == 1
        assert rig.session.inflight == 1 and gateway._inflight == 1
        rig.strike(cause)
    assert record.probe is probe
    rig.step(1.0)

    # Answered once, typed.
    assert [r.status for r in rig.deliveries] == [status]
    assert call.response is rig.deliveries[0]
    assert record.state is terminal and record.done
    assert record.request is record.respond is record.session is None
    # Everything it held is back (the session object it was charged to,
    # even when the session table has since dropped it).
    assert rig.counters() == before
    # One more in the ledger, in exactly one terminal state.
    delta = {s: n - ledger[s] for s, n in gateway.settled.items() if n != ledger[s]}
    assert delta == {terminal: 1}
    assert gateway.executed == (1 if terminal is OK or cause == "abort" else 0)


def test_a_probe_refused_at_dispatch_does_not_wedge_the_breaker():
    """Defect 3 at the parent: a half-open probe answered 400 kept its
    probe slot, so the tenant got 503 CircuitOpenError forever."""
    rig = Rig(held=False, admission=False)
    rig.half_open()
    bad = rig.client.collective(999, 256)
    rig.step(0.001)
    assert bad.response.status == 400
    assert rig.session.breaker.state is BreakerState.HALF_OPEN
    for _ in range(3):
        again = rig.client.collective(rig.comm_id, 256)
        rig.step(0.01)
        assert again.response.status == 200
    assert rig.session.breaker.state is BreakerState.CLOSED
