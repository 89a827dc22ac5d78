"""Gateway behaviors: routes, robustness stack, crash/restart, isolation."""

import numpy as np
import pytest

from repro.errors import CommunicatorError, ServiceUnavailableError
from repro.service import (
    BreakerPolicy,
    BrownoutPolicy,
    GatewayClient,
    GatewayPolicy,
    InProcessTransport,
    ServiceGateway,
    TenantQuota,
)
from repro.service.errors import (
    AuthenticationError,
    BackpressureError,
    BrownoutShedError,
    CircuitOpenError,
    GatewayTimeoutError,
    InvalidRequestError,
    RateLimitedError,
    UnknownRouteError,
)


@pytest.fixture
def gateway(deployment):
    return ServiceGateway(deployment)


@pytest.fixture
def transport(gateway):
    return InProcessTransport(gateway)


def _client(gateway, transport, tenant="acme", **quota):
    account = gateway.register_tenant(tenant, TenantQuota(**quota) if quota else None)
    return GatewayClient(transport, api_key=account.key.raw)


def _gpu_ids(deployment, n=2):
    return [deployment.cluster.hosts[0].gpus[i].global_id for i in range(n)]


def _setup_comm(deployment, client):
    call = client.create_comm(_gpu_ids(deployment))
    deployment.run()
    assert call.ok, call.response.error
    return call.response.body["comm_id"]


# -- routes -------------------------------------------------------------------
def test_health_needs_no_auth(gateway, transport, deployment):
    call = GatewayClient(transport).health()
    deployment.run()
    assert call.ok
    assert call.response.body["alive"] is True
    assert call.response.body["tenants"] == 0


def test_unknown_route_404(gateway, transport, deployment):
    call = _client(gateway, transport).request("GET", "/v1/nope")
    deployment.run()
    assert call.response.status == 404
    assert isinstance(call.response.error, UnknownRouteError)


def test_bad_api_key_401(gateway, transport, deployment):
    gateway.register_tenant("acme")
    call = GatewayClient(transport, api_key="mk_bogus").alloc(0, 64)
    deployment.run()
    assert call.response.status == 401
    assert isinstance(call.response.error, AuthenticationError)


def test_alloc_comm_collective_roundtrip(gateway, transport, deployment):
    client = _client(gateway, transport)
    comm_id = _setup_comm(deployment, client)
    gpus = _gpu_ids(deployment)
    sends = [client.alloc(g, 256, fill=2.0) for g in gpus]
    recvs = [client.alloc(g, 256) for g in gpus]
    deployment.run()
    assert all(c.ok for c in sends + recvs)
    call = client.collective(
        comm_id, 256,
        send_buffers=[c.response.body["buffer_id"] for c in sends],
        recv_buffers=[c.response.body["buffer_id"] for c in recvs],
    )
    deployment.run()
    assert call.ok
    assert call.response.body["seq"] == 0
    session = gateway.session_of("acme")
    for c in recvs:
        data = session.client.buffers[c.response.body["buffer_id"]].view(np.float32)
        assert np.allclose(data, 2.0 * len(gpus))
    assert deployment.verify_journal() == []


def test_destroy_comm_route(gateway, transport, deployment):
    client = _client(gateway, transport)
    comm_id = _setup_comm(deployment, client)
    call = client.destroy_comm(comm_id)
    deployment.run()
    assert call.ok
    again = client.collective(comm_id, 256)
    deployment.run()
    assert again.response.status == 400
    assert isinstance(again.response.error, InvalidRequestError)


def test_communicator_quota_enforced(gateway, transport, deployment):
    client = _client(gateway, transport, max_communicators=1)
    _setup_comm(deployment, client)
    second = client.create_comm(_gpu_ids(deployment))
    deployment.run()
    assert second.response.status == 400
    assert "quota" in str(second.response.error)


# -- rate limiting ------------------------------------------------------------
def test_token_bucket_throttles_429(gateway, transport, deployment):
    client = _client(gateway, transport, rate=1.0, burst=1.0)
    first = client.alloc(0, 64)
    second = client.alloc(0, 64)
    deployment.run()
    assert first.ok
    assert second.response.status == 429
    assert isinstance(second.response.error, RateLimitedError)
    assert second.response.error.retry_after > 0


# -- backpressure and deadlines ----------------------------------------------
def test_queue_full_backpressure_503(deployment):
    gateway = ServiceGateway(
        deployment, GatewayPolicy(queue_capacity=1, max_inflight=0)
    )
    transport = InProcessTransport(gateway)
    client = _client(gateway, transport, rate=100.0, burst=50.0)
    comm_id = _setup_comm(deployment, client)
    held = client.collective(comm_id, 256, ttl=10.0)
    overflow = client.collective(comm_id, 256, ttl=10.0)
    deployment.run(until=deployment.sim.now + 0.01)
    assert held.response is None  # queued: no dispatch slots
    assert overflow.response.status == 503
    assert isinstance(overflow.response.error, BackpressureError)


def test_per_tenant_queue_bound(deployment):
    gateway = ServiceGateway(
        deployment, GatewayPolicy(queue_capacity=64, max_inflight=0)
    )
    transport = InProcessTransport(gateway)
    client = _client(gateway, transport, rate=100.0, burst=50.0, max_queued=1)
    comm_id = _setup_comm(deployment, client)
    client.collective(comm_id, 256, ttl=10.0)
    overflow = client.collective(comm_id, 256, ttl=10.0)
    deployment.run(until=deployment.sim.now + 0.01)
    assert overflow.response.status == 503
    assert isinstance(overflow.response.error, BackpressureError)


def test_queued_request_deadline_504(deployment):
    gateway = ServiceGateway(deployment, GatewayPolicy(max_inflight=0))
    transport = InProcessTransport(gateway)
    client = _client(gateway, transport, rate=100.0, burst=50.0)
    comm_id = _setup_comm(deployment, client)
    call = client.collective(comm_id, 256, ttl=0.01)
    deployment.run()
    assert call.response.status == 504
    assert isinstance(call.response.error, GatewayTimeoutError)
    # Expired in the queue: settled once, as a timeout, never executed.
    stats = gateway.stats()
    assert stats["by_state"] == {"timed_out": 1} and stats["executed"] == 0


# -- circuit breaker ----------------------------------------------------------
def test_breaker_trips_on_aborted_communicator(deployment):
    gateway = ServiceGateway(
        deployment,
        GatewayPolicy(breaker=BreakerPolicy(window=4, min_samples=2, cooldown=5.0)),
    )
    transport = InProcessTransport(gateway)
    client = _client(gateway, transport, rate=1000.0, burst=100.0)
    comm_id = _setup_comm(deployment, client)
    deployment.communicator(comm_id).abort(CommunicatorError("poisoned"))
    failures = [client.collective(comm_id, 256) for _ in range(2)]
    deployment.run()
    assert all(f.response.status == 500 for f in failures)
    assert gateway.breaker_of("acme").open
    blocked = client.collective(comm_id, 256)
    deployment.run()
    assert blocked.response.status == 503
    assert isinstance(blocked.response.error, CircuitOpenError)
    # Tripped tenants reach no backend: the blocked request was refused
    # at the door, the two failures died at dispatch, nothing executed.
    stats = gateway.stats()
    assert stats["refused"] == 1 and stats["by_state"] == {"failed": 2}
    assert stats["executed"] == 0 and stats["breaker_trips"] == 1


def test_breaker_blast_radius_is_one_tenant(deployment):
    gateway = ServiceGateway(
        deployment,
        GatewayPolicy(breaker=BreakerPolicy(window=4, min_samples=2, cooldown=5.0)),
    )
    transport = InProcessTransport(gateway)
    bad = _client(gateway, transport, tenant="bad", rate=1000.0, burst=100.0)
    good = _client(gateway, transport, tenant="good", rate=1000.0, burst=100.0)
    bad_comm = _setup_comm(deployment, bad)
    good_comm = _setup_comm(deployment, good)
    deployment.communicator(bad_comm).abort(CommunicatorError("poisoned"))
    for _ in range(3):
        bad.collective(bad_comm, 256)
    witness = good.collective(good_comm, 256)
    deployment.run()
    assert gateway.breaker_of("bad").open
    assert not gateway.breaker_of("good").open
    assert witness.ok


# -- brownout -----------------------------------------------------------------
def test_brownout_sheds_low_not_high(deployment):
    gateway = ServiceGateway(
        deployment,
        GatewayPolicy(
            queue_capacity=2,
            max_inflight=0,
            brownout=BrownoutPolicy(watermarks=(0.05, 0.9), hysteresis=0.01),
        ),
    )
    transport = InProcessTransport(gateway)
    low = _client(gateway, transport, tenant="low-t", qos_class="low",
                  rate=100.0, burst=50.0)
    high = _client(gateway, transport, tenant="high-t", qos_class="high",
                   rate=100.0, burst=50.0)
    low_comm = _setup_comm(deployment, low)
    high_comm = _setup_comm(deployment, high)
    # First low request is accepted, then its own queue occupancy raises
    # the level and the drain sheds it with a typed decision.
    first = low.collective(low_comm, 256, ttl=10.0)
    deployment.run(until=deployment.sim.now + 0.01)
    # The level rose to shed the queue, then relaxed once it emptied.
    assert any(new >= 1 for _, _, new in gateway.brownout.transitions)
    assert first.response.status == 503
    assert isinstance(first.response.error, BrownoutShedError)
    shed = low.collective(low_comm, 256, ttl=10.0)
    kept = high.collective(high_comm, 256, ttl=10.0)
    deployment.run(until=deployment.sim.now + 0.01)
    assert shed.response.status == 503
    assert isinstance(shed.response.error, BrownoutShedError)
    assert kept.response is None  # queued, not shed (high survives)


# -- bulkhead isolation -------------------------------------------------------
def test_bulkhead_zero_width_tenant_cannot_starve_others(gateway, transport, deployment):
    stuck = _client(gateway, transport, tenant="stuck", rate=100.0, burst=50.0,
                    max_inflight=0)
    flowing = _client(gateway, transport, tenant="flowing", rate=100.0, burst=50.0)
    stuck_comm = _setup_comm(deployment, stuck)
    flow_comm = _setup_comm(deployment, flowing)
    starved = stuck.collective(stuck_comm, 256, ttl=0.05)
    served = flowing.collective(flow_comm, 256, ttl=0.05)
    deployment.run()
    # The zero-width tenant's request can never dispatch and expires; the
    # other tenant's request flows past it.
    assert starved.response.status == 504
    assert served.ok


# -- crash / restart ----------------------------------------------------------
def test_crash_answers_typed_and_restart_restores(gateway, transport, deployment):
    client = _client(gateway, transport, rate=1000.0, burst=100.0)
    comm_id = _setup_comm(deployment, client)
    ok_before = client.collective(comm_id, 256)
    deployment.run()
    assert ok_before.ok
    gateway.crash()
    during = client.collective(comm_id, 256)
    deployment.run()
    assert during.response.status == 503
    assert isinstance(during.response.error, ServiceUnavailableError)
    assert gateway.restart() == 1
    # Post-restart the session shim is fresh; the comm is re-adopted from
    # durable ownership and the old API key still authenticates.
    after = client.collective(comm_id, 256)
    deployment.run()
    assert after.ok
    assert deployment.verify_journal() == []


# -- revocation ---------------------------------------------------------------
def test_revoke_under_load_answers_the_queue_and_spares_the_rest(deployment):
    """Revoking a tenant answers its *queued* requests 401 and lets the
    executing one finish; the co-tenant never notices.  (At the parent the
    pump indexed the dropped session: ``KeyError`` out of ``sim.run()``,
    and nobody was answered afterwards.)"""
    gateway = ServiceGateway(deployment, GatewayPolicy(max_inflight=8))
    transport = InProcessTransport(gateway)
    doomed = _client(gateway, transport, tenant="doomed", rate=1000.0,
                     burst=100.0, max_inflight=1)
    other = _client(gateway, transport, tenant="other", rate=1000.0, burst=100.0)
    doomed_comm = _setup_comm(deployment, doomed)
    other_comm = _setup_comm(deployment, other)
    answers = []
    calls = [
        doomed.collective(doomed_comm, 256 << 20, ttl=10.0,
                          on_response=answers.append)
        for _ in range(4)
    ]
    deployment.run(until=deployment.sim.now + 0.001)
    session = gateway.session_of("doomed")
    assert (session.inflight, session.queued) == (1, 3)  # bulkhead width 1
    gateway.revoke_tenant("doomed")
    witness = other.collective(other_comm, 256, on_response=answers.append)
    late = doomed.collective(doomed_comm, 256, on_response=answers.append)
    deployment.run()
    assert [c.response.status for c in calls] == [200, 401, 401, 401]
    assert all(isinstance(c.response.error, AuthenticationError) for c in calls[1:])
    assert witness.ok and late.response.status == 401
    assert len(answers) == 6  # each call exactly once
    assert (session.inflight, session.queued, gateway._inflight) == (0, 0, 0)
    stats = gateway.stats()
    assert stats["by_state"] == {"ok": 2, "rejected": 3} and stats["refused"] == 1
    rejections = deployment.telemetry().metrics.get("mccs_gateway_rejections_total")
    assert rejections.value(reason="revoked", qos="normal") == 3
