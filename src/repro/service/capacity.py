"""Capacity planning: "how many hosts for N tenants at p99 <= X?"

The gateway's data path is well approximated by an M/M/c queue: tenant
apps issue collectives as a merged Poisson stream (thousands of
independent diurnally-modulated sources), and the deployment offers
``hosts * slots_per_host`` concurrent execution slots.  The planner uses
the Erlang-C delay formula plus the exponential tail of the M/M/c
waiting-time distribution to size the fleet for a p99 latency target,
and the fleet experiment validates the answer against the simulated
gateway.

The model intentionally prices *peak* load: callers pass the diurnal
``peak_factor`` (see :class:`repro.workloads.arrivals.DiurnalProfile`)
so the plan holds at the top of the daily cycle, not just on average.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ..netsim.errors import PolicyError


def erlang_c(servers: int, offered_load: float) -> float:
    """Erlang-C: probability an arrival must queue in M/M/c.

    Args:
        servers: Number of servers ``c`` (must be positive).
        offered_load: ``a = lambda / mu`` in Erlangs; must satisfy
            ``a < c`` for a stable queue.

    The Erlang-B recurrence ``B(0) = 1; B(k) = a*B(k-1) / (k + a*B(k-1))``
    is numerically stable for large ``c`` (no factorials), and Erlang C
    follows as ``C = c*B / (c - a*(1 - B))``.
    """
    if servers <= 0:
        raise PolicyError("erlang_c needs at least one server")
    if offered_load < 0:
        raise PolicyError("offered load cannot be negative")
    if offered_load == 0:
        return 0.0
    if offered_load >= servers:
        return 1.0  # unstable: every arrival queues
    blocking = 1.0
    for k in range(1, servers + 1):
        blocking = offered_load * blocking / (k + offered_load * blocking)
    return servers * blocking / (servers - offered_load * (1.0 - blocking))


@dataclass(frozen=True)
class CapacityModel:
    """What one host contributes and what one request costs.

    Attributes:
        slots_per_host: Concurrent collective-execution slots per host
            (one per GPU in the default deployments).
        service_time_s: Mean per-request service time (queue + datapath).
        max_utilization: Plans above this server utilization are marked
            infeasible even if the p99 math works out — headroom for
            faults and maintenance.
    """

    slots_per_host: int = 8
    service_time_s: float = 0.002
    max_utilization: float = 0.85


@dataclass(frozen=True)
class CapacityPlan:
    """One sized configuration and its predicted behavior."""

    hosts: int
    servers: int
    arrival_rate: float
    offered_load: float
    utilization: float
    queue_probability: float
    p99_s: float
    feasible: bool


class CapacityPlanner:
    """Sizes a deployment for a tenant population and a p99 target."""

    def __init__(self, model: Optional[CapacityModel] = None) -> None:
        self.model = model or CapacityModel()

    # ------------------------------------------------------------------
    def evaluate(self, hosts: int, arrival_rate: float) -> CapacityPlan:
        """Predict behavior of ``hosts`` hosts under ``arrival_rate`` req/s."""
        model = self.model
        servers = hosts * model.slots_per_host
        mu = 1.0 / model.service_time_s
        offered = arrival_rate / mu
        utilization = offered / servers if servers else math.inf
        if offered >= servers:
            return CapacityPlan(
                hosts=hosts,
                servers=servers,
                arrival_rate=arrival_rate,
                offered_load=offered,
                utilization=utilization,
                queue_probability=1.0,
                p99_s=math.inf,
                feasible=False,
            )
        queue_p = erlang_c(servers, offered)
        # M/M/c waiting tail: P(W > t) = C * exp(-(c*mu - lambda) t), so
        # the p99 *wait* is ln(100 C)/(c mu - lambda) when C > 1%; the p99
        # latency adds the exponential service tail ln(100)/mu.
        drain = servers * mu - arrival_rate
        wait_p99 = math.log(100.0 * queue_p) / drain if queue_p > 0.01 else 0.0
        p99 = max(wait_p99, 0.0) + math.log(100.0) * model.service_time_s
        return CapacityPlan(
            hosts=hosts,
            servers=servers,
            arrival_rate=arrival_rate,
            offered_load=offered,
            utilization=utilization,
            queue_probability=queue_p,
            p99_s=p99,
            feasible=utilization <= model.max_utilization,
        )

    def hosts_for(
        self,
        num_tenants: int,
        rate_per_tenant: float,
        target_p99_s: float,
        *,
        peak_factor: float = 1.0,
        max_hosts: int = 100_000,
    ) -> CapacityPlan:
        """Smallest host count meeting ``target_p99_s`` at peak load."""
        if num_tenants <= 0 or rate_per_tenant <= 0:
            raise PolicyError("need a positive tenant population and rate")
        if target_p99_s <= 0:
            raise PolicyError("p99 target must be positive")
        # The exponential service tail ln(100)/mu is irreducible: no host
        # count can beat it, so refuse instead of scanning to max_hosts.
        tail = math.log(100.0) * self.model.service_time_s
        if target_p99_s < tail:
            raise PolicyError(
                f"p99 target {target_p99_s:g}s is below the service-time "
                f"tail {tail:g}s; no host count can meet it"
            )
        arrival_rate = num_tenants * rate_per_tenant * peak_factor
        model = self.model
        # Lower bound: enough servers to be stable under max_utilization.
        offered = arrival_rate * model.service_time_s
        hosts = max(
            1,
            math.ceil(offered / (model.slots_per_host * model.max_utilization)),
        )
        while hosts <= max_hosts:
            plan = self.evaluate(hosts, arrival_rate)
            if plan.feasible and plan.p99_s <= target_p99_s:
                return plan
            hosts += 1
        raise PolicyError(
            f"no feasible plan under {max_hosts} hosts for "
            f"{num_tenants} tenants at p99 <= {target_p99_s:g}s"
        )
