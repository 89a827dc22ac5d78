"""Property tests: gateway invariants under arbitrary interleavings.

Hypothesis drives random programs of tenant traffic, communicator
aborts (breaker trips), tenant revocations, gateway crashes, and restarts
against a fresh deployment, and checks the invariants the fleet
experiment relies on:

* every request is answered exactly once — deliveries are *counted*, a
  second answer would not hide behind the first,
* no request is both rejected and executed,
* collectives that were admitted (HTTP 200) are byte-exact,

and, after **every** step of the program, that the books balance: each
session's ``queued``/``inflight`` equal the unsettled records charged to
it in those states, the gateway's totals equal the sums, and a settled
record holds nothing.  The restart cases at the bottom pin the two ways
the books used to drift across ``gateway.restart()``.
"""

from collections import Counter

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.cluster.specs import testbed_cluster
from repro.core.deployment import MccsDeployment
from repro.errors import CommunicatorError
from repro.service import (
    Backoff,
    BreakerPolicy,
    BrownoutPolicy,
    CircuitBreaker,
    GatewayClient,
    GatewayPolicy,
    InProcessTransport,
    ServiceGateway,
    TenantQuota,
)
from repro.service.gateway import RequestState

TENANTS = ("t-high", "t-low")
NBYTES = 256

_op = st.one_of(
    st.tuples(st.just("collective"), st.integers(0, len(TENANTS) - 1)),
    st.tuples(st.just("collective"), st.integers(0, len(TENANTS) - 1)),
    st.tuples(st.just("collective"), st.integers(0, len(TENANTS) - 1)),
    st.tuples(st.just("step"), st.just(0)),
    st.tuples(st.just("abort"), st.integers(0, len(TENANTS) - 1)),
    st.tuples(st.just("revoke"), st.integers(0, len(TENANTS) - 1)),
    st.tuples(st.just("crash"), st.just(0)),
    st.tuples(st.just("restart"), st.just(0)),
)


def _build():
    deployment = MccsDeployment(testbed_cluster())
    gateway = ServiceGateway(
        deployment,
        GatewayPolicy(
            queue_capacity=4,
            max_inflight=2,
            default_deadline=0.08,
            retry=Backoff(base=0.001, cap=0.004, max_retries=2),
            breaker=BreakerPolicy(window=4, min_samples=2, cooldown=0.05),
            brownout=BrownoutPolicy(watermarks=(0.5, 0.9), hysteresis=0.1),
        ),
    )
    transport = InProcessTransport(gateway)
    tenants = []
    for i, (tid, qos) in enumerate(zip(TENANTS, ("high", "low"))):
        account = gateway.register_tenant(
            tid, TenantQuota(qos_class=qos, rate=400.0, burst=8.0,
                             max_queued=4, max_inflight=2)
        )
        client = GatewayClient(transport, api_key=account.key.raw)
        gpus = [deployment.cluster.hosts[i].gpus[j].global_id for j in (0, 1)]
        comm_call = client.create_comm(gpus)
        fill = float(i + 2)
        send_calls = [client.alloc(g, NBYTES, fill=fill) for g in gpus]
        recv_calls = [client.alloc(g, NBYTES) for g in gpus]
        deployment.run()
        assert comm_call.ok, comm_call.response.error
        tenants.append({
            "id": tid,
            "client": client,
            "comm": comm_call.response.body["comm_id"],
            "sends": [c.response.body["buffer_id"] for c in send_calls],
            "recvs": [c.response.body["buffer_id"] for c in recv_calls],
            "fill": fill,
            "aborted": False,
            "revoked": False,
        })
    return deployment, gateway, tenants


def check_books(gateway):
    """The accounting invariant (the ring holds every record of a run this
    short, so the unsettled ones are all in view)."""
    records = list(gateway.records)
    assert gateway.records.evicted == 0
    live = [r for r in records if not r.done]
    sessions = {id(s): s for s in gateway._sessions.values()}
    sessions.update((id(r.session), r.session) for r in live)
    for session in sessions.values():
        mine = [r for r in live if r.session is session]
        waiting = sum(r.state is RequestState.QUEUED for r in mine)
        assert (session.queued, session.inflight) == (waiting, len(mine) - waiting)
        assert session.breaker._probes_inflight >= 0 and session.bucket.tokens >= 0
    assert gateway._inflight == sum(s.inflight for s in sessions.values())
    assert gateway._queued == sum(s.queued for s in sessions.values())
    assert gateway._queued == sum(len(q) for q in gateway._queues.values())
    assert {id(r) for q in gateway._queues.values() for r in q} == {
        id(r) for r in live if r.state is RequestState.QUEUED
    }
    assert gateway._open_breakers == sum(
        s.breaker.open for s in gateway._sessions.values()
    )
    for record in records:
        if record.done:
            assert record.request is record.respond is record.session is None
    stats = gateway.stats()
    assert stats["requests"] == len(records)
    assert sum(stats["by_state"].values()) == len(records) - len(live)


@settings(max_examples=20, deadline=None)
@given(program=st.lists(_op, min_size=1, max_size=24))
def test_no_request_lost_duplicated_or_corrupted(program):
    deployment, gateway, tenants = _build()
    calls = []
    delivered = Counter()
    for op, idx in program:
        tenant = tenants[idx]
        if op == "collective":
            calls.append((tenant, tenant["client"].collective(
                tenant["comm"], NBYTES,
                send_buffers=tenant["sends"],
                recv_buffers=tenant["recvs"],
                ttl=0.08,
                on_response=lambda r: delivered.update([r.request_id]),
            )))
        elif op == "step":
            deployment.run(until=deployment.sim.now + 0.002)
        elif op == "abort" and not tenant["aborted"]:
            deployment.communicator(tenant["comm"]).abort(
                CommunicatorError("chaos abort")
            )
            tenant["aborted"] = True
        elif op == "revoke" and not tenant["revoked"]:
            gateway.revoke_tenant(tenant["id"])
            tenant["revoked"] = True
        elif op == "crash":
            gateway.crash()
        elif op == "restart":
            gateway.restart()
        check_books(gateway)
    gateway.restart()  # no-op if alive; drains survivors otherwise
    deployment.run()
    check_books(gateway)

    # Every request answered exactly once.
    assert delivered == Counter(call.request.request_id for _, call in calls)
    # The ledger counts every one of them once: refused at the door, or
    # accepted and settled in one terminal state.
    stats = gateway.stats()
    assert len(calls) == stats["refused"] + sum(stats["by_state"].values())
    # No request both rejected and executed: an executed request is
    # answered by its collective (200, or 500 with the abort in the body)
    # and by nothing else, so the executed count is exactly those answers
    # and none of them carries a rejection status.
    responses = [call.response for _, call in calls]
    ran = [r for r in responses if r.status == 200 or r.body.get("aborted")]
    assert stats["executed"] == len(ran)
    assert stats["by_state"].get("ok", 0) == sum(r.status == 200 for r in ran)
    assert all(r.status in (200, 500) for r in ran)
    # Admitted (200) collectives are byte-exact: each rank's reduction
    # saw both contributions of the tenant's fill value.
    for tenant in tenants:
        oks = [c for t, c in calls if t is tenant and c.ok]
        if not oks or tenant["aborted"]:
            continue
        shim = deployment.connect(tenant["id"])  # sessions may be gone
        for buffer_id in tenant["recvs"]:
            buf = shim.adopt_buffer(buffer_id)
            assert np.allclose(buf.view(np.float32), tenant["fill"] * 2)
    assert all(r.status in (200, 401, 429, 500, 503, 504) for r in responses)


# -- restart cases, pinned ------------------------------------------------------
def _tenant(deployment, gateway, **quota):
    account = gateway.register_tenant("acme", TenantQuota(rate=1e6, burst=1e6, **quota))
    client = GatewayClient(InProcessTransport(gateway), api_key=account.key.raw)
    gpus = [g.global_id for g in deployment.cluster.hosts[0].gpus[:2]]
    created = client.create_comm(gpus)
    deployment.run()
    return client, created.response.body["comm_id"]


def test_trips_are_counted_across_a_restart(monkeypatch):
    """``mccs_gateway_breaker_trips_total`` equals the number of times a
    breaker really tripped.  The parent kept a per-tenant high-water mark
    that outlived the breakers it indexed, so trips of a restarted
    tenant's fresh breaker went uncounted until they passed the old mark
    (``fleet`` printed 5 for 8)."""
    tripped = []
    real_trip = CircuitBreaker._trip

    def counting_trip(self, now):
        tripped.append(now)
        real_trip(self, now)

    monkeypatch.setattr(CircuitBreaker, "_trip", counting_trip)
    deployment = MccsDeployment(testbed_cluster())
    gateway = ServiceGateway(
        deployment,
        GatewayPolicy(breaker=BreakerPolicy(window=4, min_samples=2, cooldown=5.0)),
    )
    client, comm_id = _tenant(deployment, gateway)
    deployment.communicator(comm_id).abort(CommunicatorError("poisoned"))
    for _ in range(2):  # one trip per gateway process
        for _ in range(2):
            client.collective(comm_id, NBYTES)
        deployment.run()
        assert gateway.breaker_of("acme").open
        gateway.crash()
        gateway.restart()
    counted = deployment.telemetry().metrics.get("mccs_gateway_breaker_trips_total")
    assert len(tripped) == 2 == counted.total() == gateway.stats()["breaker_trips"]
    events = deployment.telemetry().events.events("breaker_tripped")
    assert [e.time for e in events] == tripped


def test_a_restart_does_not_widen_the_bulkhead():
    """Completions of pre-crash requests are debited from the session they
    were charged to.  The parent debited the tenant's *new* session, whose
    ``inflight`` then under-read what it really held and let the tenant
    through its bulkhead (width 2 here, four slots held)."""
    deployment = MccsDeployment(testbed_cluster())
    gateway = ServiceGateway(deployment, GatewayPolicy(max_inflight=8))
    client, comm_id = _tenant(deployment, gateway, max_inflight=2, max_queued=8)
    big = 256 << 20
    first = [client.collective(comm_id, big, ttl=30.0) for _ in range(2)]
    deployment.run(until=deployment.sim.now + 0.001)
    old = gateway.session_of("acme")
    assert old.inflight == 2 == gateway._inflight
    gateway.crash()
    gateway.restart()
    later = [client.collective(comm_id, big, ttl=30.0) for _ in range(6)]
    deployment.run(until=deployment.sim.now + 0.001)
    new = gateway.session_of("acme")
    assert new is not old and (new.inflight, new.queued) == (2, 4)
    assert gateway._inflight == 4
    widest = [0]

    def watch():
        check_books(gateway)
        widest[0] = max(widest[0], new.inflight)
        if not all(call.done for call in first + later):
            deployment.sim.call_in(0.002, watch)

    watch()
    deployment.run()
    assert all(call.ok for call in first + later)
    assert widest[0] == 2 and old.inflight == new.inflight == gateway._inflight == 0
