"""Tenant-facing service gateway: the fleet-scale front door (§3).

The rest of :mod:`repro.core` is the *provider's* control plane — shims
talk straight to frontend engines with no identity, no quotas and no
bounded queueing.  This package puts a managed-cloud serving surface in
front of it:

* :mod:`~repro.service.registry` — persistent tenant accounts with API
  keys, quotas and QoS classes, journaled through the deployment's
  write-ahead :class:`~repro.core.journal.StateJournal`;
* :mod:`~repro.service.gateway` — a REST-shaped request API with the
  full robustness stack: per-tenant token-bucket rate limiting, bounded
  per-class queues with explicit backpressure, request deadlines with
  capped-exponential retry, per-tenant circuit breakers, bulkhead
  isolation, and graceful brownout shedding;
* :mod:`~repro.service.transport` — the in-process async transport and
  the tenant-side :class:`~repro.service.transport.GatewayClient`;
* :mod:`~repro.service.loadgen` — a fleet load generator replaying
  thousands of tenant apps with diurnal arrival modulation;
* :mod:`~repro.service.capacity` — the "how many hosts for N tenants at
  p99 <= X" planner.
"""

from .capacity import CapacityModel, CapacityPlan, CapacityPlanner, erlang_c
from ..resilience import Backoff
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
from .gateway import GatewayPolicy, GatewayRequest, GatewayResponse, ServiceGateway
from .limits import (
    BreakerPolicy,
    BreakerState,
    BrownoutController,
    BrownoutPolicy,
    CircuitBreaker,
    TokenBucket,
)
from .loadgen import FleetLoadGenerator, TenantAppSpec, fleet_specs
from .registry import ApiKey, TenantAccount, TenantQuota, TenantRegistry
from .transport import GatewayClient, InProcessTransport, PendingCall

__all__ = [
    "ApiKey",
    "AuthenticationError",
    "Backoff",
    "BackpressureError",
    "BreakerPolicy",
    "BreakerState",
    "BrownoutController",
    "BrownoutPolicy",
    "BrownoutShedError",
    "CapacityModel",
    "CapacityPlan",
    "CapacityPlanner",
    "CircuitBreaker",
    "CircuitOpenError",
    "FleetLoadGenerator",
    "GatewayClient",
    "GatewayError",
    "GatewayPolicy",
    "GatewayRequest",
    "GatewayResponse",
    "GatewayTimeoutError",
    "InProcessTransport",
    "InvalidRequestError",
    "PendingCall",
    "RateLimitedError",
    "ServiceGateway",
    "TenantAccount",
    "TenantAppSpec",
    "TenantQuota",
    "TenantRegistry",
    "TokenBucket",
    "UnknownRouteError",
    "erlang_c",
    "fleet_specs",
]
