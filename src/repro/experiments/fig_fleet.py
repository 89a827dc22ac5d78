"""Fleet — the tenant-facing gateway under a thousand-tenant front door.

The paper's multi-tenant premise (§1, §6.4) is that collective
communication becomes a *shared service*: many small tenants, one
provider-run control plane.  This experiment is the front-door stress
test of that premise.  A fleet of ≥1000 tenant applications — drawn from
the production product-group archetypes, each with its own API key,
quota, and QoS class — drives one :class:`~repro.service.ServiceGateway`
through its REST-shaped transport while the run layers on, in order:

* a **diurnal crest** (the :class:`~repro.workloads.arrivals.
  DiurnalProfile` sinusoid) that pushes aggregate, per-tenant-compliant
  traffic past the gateway's dispatch capacity — engaging graceful
  brownout, which sheds the low classes by typed decision while the
  high class keeps its SLO;
* **tenant storms** injected through the v3 fault plan
  (``FaultKind.TENANT_STORM`` → :meth:`FleetLoadGenerator.storm`),
  absorbed by per-tenant token buckets (429s, not collateral damage);
* **poison tenants** whose communicators are aborted mid-run: their
  circuit breakers trip and their co-resident witness tenants — same
  hosts, same service processes — must be untouched, proven byte-exactly
  with a data-carrying collective at the end;
* a **host service crash** healed by the supervisor (transient 503s at
  dispatch, absorbed by capped-exponential retries);
* a **gateway crash/restart** that rebuilds the tenant registry purely
  from the write-ahead journal.

Every issued request is answered exactly once with a typed outcome (the
zero-unhandled-exceptions ledger), and the journal replays to the live
state after all of it.  The report closes with the capacity planner's
answer to the provisioning question the experiment just measured: how
many gateway hosts does this tenant count need at the high-class p99?

``MCCS_FLEET_OUT=/path.json`` writes the rows as a JSON artifact
(consumed by the chaos CI job).
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass
from math import ceil
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..cluster.specs import custom_cluster
from ..core.admission import AdmissionPolicy
from ..core.deployment import MccsDeployment
from ..faults.injector import FaultInjector
from ..faults.plan import FaultPlan
from ..netsim.errors import CommunicatorError
from ..service import (
    Backoff,
    BreakerPolicy,
    BrownoutPolicy,
    CapacityModel,
    CapacityPlanner,
    FleetLoadGenerator,
    GatewayClient,
    GatewayPolicy,
    ServiceGateway,
    fleet_specs,
)
from ..workloads.arrivals import DiurnalProfile
from .report import print_table

#: GPUs per communicator (intra-host pairs keep 1000+ tenants tractable).
COMM_WORLD = 2
#: 2-GPU communicator slots per 8-GPU host.
PAIRS_PER_HOST = 4


@dataclass
class ClassRow:
    """Aggregate outcome of one QoS class (poison tenants excluded)."""

    qos: str
    tenants: int
    issued: int
    ok: int
    #: Typed decisions: 429 throttles plus 503 sheds/backpressure/breaker.
    rejected: int
    timed_out: int
    failed: int
    #: ok / (ok + failed + timed_out) — typed decisions are answers, not
    #: SLO failures; ``None`` until the class completed something.
    attainment: Optional[float]
    p99_ms: Optional[float]


@dataclass
class FleetReport:
    """One fleet run: the gateway's ledger plus every acceptance witness."""

    seed: int
    num_tenants: int
    horizon: float
    hosts: int
    classes: List[ClassRow]
    #: Highest brownout level reached and the typed low-class shed count.
    brownout_peak_level: int
    brownout_transitions: int
    brownout_shed_low: int
    brownout_shed_high: int
    throttled: int
    retries: int
    breaker_trips: int
    poison_tenants: List[str]
    #: Every poison tenant's breaker tripped at least once.
    poison_tripped: bool
    witness_tenants: List[str]
    #: Witnesses co-resident with poison tenants saw zero 5xx outcomes.
    witness_unharmed: bool
    #: ...and their final data-carrying collective was byte-exact.
    witness_byte_exact: bool
    gateway_crashes: int
    gateway_restarts: int
    #: Tenant accounts rebuilt from the journal on gateway restart.
    restored_tenants: int
    service_crashes: int
    service_restarts: int
    #: Every issued request received exactly one typed response.
    responses_accounted: bool
    journal_records: int
    #: Mismatch lines from replaying the journal (must be empty).
    journal_diff: List[str]
    #: Capacity planner: hosts for this tenant count at the high-class p99.
    planner_hosts: int


def _fleet_cluster(num_tenants: int):
    hosts_needed = ceil(num_tenants / PAIRS_PER_HOST)
    hosts_per_leaf = min(16, hosts_needed)
    return custom_cluster(
        num_spines=2,
        num_leaves=ceil(hosts_needed / hosts_per_leaf),
        hosts_per_leaf=hosts_per_leaf,
        gpus_per_host=2 * PAIRS_PER_HOST,
        nics_per_host=2,
        name="fleet",
    )


def _assignment(specs) -> Dict[str, List[int]]:
    """Pack tenants four-to-a-host: tenant ``i`` gets the ``i % 4``-th
    GPU pair of host ``i // 4`` (co-residency is the point — poison and
    witness tenants share hosts)."""
    out: Dict[str, List[int]] = {}
    for i, spec in enumerate(specs):
        host = i // PAIRS_PER_HOST
        pair = i % PAIRS_PER_HOST
        base = host * 2 * PAIRS_PER_HOST + 2 * pair
        out[spec.tenant_id] = [base, base + 1]
    return out


def run_fleet(
    *,
    num_tenants: int = 1000,
    seed: int = 0,
    horizon: float = 0.4,
    base_rate: float = 2.0,
    nbytes_choices: Sequence[int] = (4 << 20, 8 << 20, 16 << 20),
    poison: int = 4,
    storms: int = 0,
    gateway_crash: bool = True,
    service_crash: bool = True,
    high_p99_target: float = 0.05,
) -> FleetReport:
    """Run the fleet scenario and collect every acceptance witness.

    Args:
        num_tenants: Fleet size (the paper-scale run uses 1000).
        poison: Tenants whose communicator is aborted mid-run (hosts
            ``0..poison-1``, one per host, each with a co-resident
            witness).
        storms: Tenants hit by v3 ``tenant_storm`` fault events at the
            diurnal crest (0 = scale with the fleet).
    """
    cluster = _fleet_cluster(num_tenants)
    deployment = MccsDeployment(cluster, ecmp_seed=seed)
    deployment.enable_service_supervision(restart_delay=0.03)
    deployment.configure_admission(
        AdmissionPolicy(classes=(("high", 64), ("normal", 64), ("low", 64)))
    )
    policy = GatewayPolicy(
        queue_capacity=16,
        max_inflight=4,
        default_deadline=0.12,
        retry=Backoff(base=0.002, cap=0.03, max_retries=8),
        breaker=BreakerPolicy(
            window=6, min_samples=3, failure_threshold=0.5, cooldown=0.1
        ),
        brownout=BrownoutPolicy(watermarks=(0.40, 0.70), hysteresis=0.15),
    )
    gateway = ServiceGateway(deployment, policy)

    specs = fleet_specs(
        num_tenants, seed=seed, base_rate=base_rate, nbytes_choices=nbytes_choices
    )
    # One diurnal cycle over the run; crest at horizon/2.
    profile = DiurnalProfile(
        period=horizon, amplitude=0.8, phase=horizon / 4.0, floor=0.1
    )
    gen = FleetLoadGenerator(gateway, specs, seed=seed, profile=profile)
    gen.provision(_assignment(specs))

    # Poison tenants (one per host h < poison) and their co-resident
    # witnesses (the next pair on the same host).
    poison = min(poison, num_tenants // PAIRS_PER_HOST)
    poison_ids = [specs[h * PAIRS_PER_HOST].tenant_id for h in range(poison)]
    witness_ids = [specs[h * PAIRS_PER_HOST + 1].tenant_id for h in range(poison)]

    def poison_comms() -> None:
        for tenant_id in poison_ids:
            app = next(a for a in gen.apps() if a.spec.tenant_id == tenant_id)
            deployment.communicator(app.comm_id).abort(
                CommunicatorError(f"{tenant_id} corrupted its communicator")
            )
            # The poisoned app keeps firing hard, so its breaker sees a
            # run of 5xx outcomes and trips.
            gen.storm(tenant_id, 30.0)

    cluster.sim.call_in(0.20 * horizon, poison_comms)

    # Tenant storms at the diurnal crest, delivered through the v3 fault
    # plan (absorbed by per-tenant token buckets, not by collapse).
    if storms <= 0:
        storms = max(4, num_tenants // 25)
    injector = FaultInjector(cluster, deployment.telemetry(),
                             deployment=deployment)
    gen.bind_injector(injector)
    plan = FaultPlan()
    storm_victims = [
        spec.tenant_id
        for spec in specs[poison * PAIRS_PER_HOST:][:storms]
    ]
    for tenant_id in storm_victims:
        plan.tenant_storm(
            0.40 * horizon, tenant_id, factor=50.0, duration=0.20 * horizon
        )
    injector.schedule(plan)

    # Host service crashes among tenants that are neither poison,
    # witness, nor high-class, timed at the diurnal crest so live
    # dispatches hit the dead services (the supervisor heals them;
    # affected tenants ride the gateway's transient-retry path).
    service_crashes = 0
    if service_crash:
        victims: List[int] = []
        for host in range(poison, num_tenants // PAIRS_PER_HOST):
            residents = specs[host * PAIRS_PER_HOST:(host + 1) * PAIRS_PER_HOST]
            if all(s.qos_class != "high" for s in residents):
                victims.append(host)
            if len(victims) >= 8:
                break
        service_crashes = len(victims)
        for host in victims:
            cluster.sim.call_in(
                0.50 * horizon,
                lambda host=host: deployment.crash_service(host),
            )

    # Per-tenant breaker state is volatile gateway-process state (only
    # the registry is durable), so snapshot poison trips before the crash.
    poison_trips: Dict[str, int] = {}

    def snapshot_trips() -> None:
        for tenant_id in poison_ids:
            poison_trips[tenant_id] = gateway.breaker_of(tenant_id).trips

    cluster.sim.call_in(0.68 * horizon, snapshot_trips)

    restored = [0]
    if gateway_crash:
        cluster.sim.call_in(0.70 * horizon, gateway.crash)

        def restart() -> None:
            restored[0] = gateway.restart()

        cluster.sim.call_in(0.74 * horizon, restart)

    gen.start(horizon)
    deployment.run()

    # ------------------------------------------------------------------
    # Byte-exact witness collectives (post-drain, data-carrying).
    # ------------------------------------------------------------------
    byte_exact = True
    assignment = _assignment(specs)
    for tenant_id in witness_ids:
        session = gateway.session_of(tenant_id)
        client = GatewayClient(gen.transport, api_key=session.account.key.raw)
        gpus = assignment[tenant_id]
        comm_id = session.account.comm_ids[0]
        send_calls = [client.alloc(gpu, 256, fill=3.0) for gpu in gpus]
        recv_calls = [client.alloc(gpu, 256) for gpu in gpus]
        deployment.run()
        if not all(call.ok for call in send_calls + recv_calls):
            byte_exact = False
            continue
        final = client.collective(
            comm_id,
            256,
            send_buffers=[c.response.body["buffer_id"] for c in send_calls],
            recv_buffers=[c.response.body["buffer_id"] for c in recv_calls],
            ttl=5.0,
        )
        deployment.run()
        if not final.ok:
            byte_exact = False
            continue
        for call in recv_calls:
            buffer_id = call.response.body["buffer_id"]
            data = session.client.buffers[buffer_id].view(np.float32)
            if not np.allclose(data, 3.0 * COMM_WORLD):
                byte_exact = False

    # ------------------------------------------------------------------
    # Aggregate the ledger.
    # ------------------------------------------------------------------
    poisoned = set(poison_ids)
    by_class: Dict[str, ClassRow] = {}
    responses_accounted = True
    for app in gen.apps():
        if sum(app.outcomes.values()) != app.issued:
            responses_accounted = False
        if app.spec.tenant_id in poisoned:
            continue
        row = by_class.setdefault(
            app.spec.qos_class,
            ClassRow(
                qos=app.spec.qos_class, tenants=0, issued=0, ok=0, rejected=0,
                timed_out=0, failed=0, attainment=None, p99_ms=None,
            ),
        )
        row.tenants += 1
        row.issued += app.issued
        row.ok += app.ok
        row.timed_out += app.outcomes.get(504, 0)
        row.rejected += app.rejected - app.outcomes.get(504, 0)
        row.failed += app.failed
    # Latencies come from the ledger's ring (the last 512 accepted
    # requests; the paper-scale run accepts 439).
    latencies: Dict[str, List[float]] = {}
    for record in gateway.records:
        if record.tenant in poisoned or record.finished_at is None:
            continue
        if record.state.value == "ok":
            latencies.setdefault(record.qos, []).append(
                record.finished_at - record.accepted_at
            )
    for qos, row in by_class.items():
        answered = row.ok + row.failed + row.timed_out
        row.attainment = row.ok / answered if answered else None
        samples = sorted(latencies.get(qos, []))
        if samples:
            row.p99_ms = samples[min(
                int(ceil(0.99 * len(samples))) - 1, len(samples) - 1
            )] * 1e3

    witness_unharmed = all(
        next(a for a in gen.apps() if a.spec.tenant_id == t).failed == 0
        for t in witness_ids
    )
    metrics = deployment.telemetry().metrics
    rejections = metrics.get("mccs_gateway_rejections_total")
    stats = gateway.stats()

    # Capacity planner: answer the provisioning question this run just
    # measured, using the observed mean completion latency as the service
    # time and the diurnal crest as the peak factor.
    all_latencies = [v for values in latencies.values() for v in values]
    model = CapacityModel(
        slots_per_host=policy.max_inflight,
        service_time_s=(
            sum(all_latencies) / len(all_latencies) if all_latencies else 0.002
        ),
    )
    planner = CapacityPlanner(model)
    mean_rate = sum(s.rate for s in specs) / len(specs)
    planner_hosts = planner.hosts_for(
        num_tenants, mean_rate, high_p99_target, peak_factor=profile.peak_factor
    ).hosts

    order = {"high": 0, "normal": 1, "low": 2}
    return FleetReport(
        seed=seed,
        num_tenants=num_tenants,
        horizon=horizon,
        hosts=len(cluster.hosts),
        classes=sorted(
            by_class.values(), key=lambda r: order.get(r.qos, 99)
        ),
        brownout_peak_level=max(
            [new for _, _, new in gateway.brownout.transitions] or [0]
        ),
        brownout_transitions=stats["brownout_transitions"],
        brownout_shed_low=int(rejections.value(reason="brownout", qos="low")),
        brownout_shed_high=int(rejections.value(reason="brownout", qos="high")),
        throttled=int(metrics.get("mccs_gateway_throttled_total").total()),
        retries=int(metrics.get("mccs_gateway_retries_total").total()),
        breaker_trips=stats["breaker_trips"],
        poison_tenants=poison_ids,
        poison_tripped=all(
            poison_trips.get(t, 0) >= 1 for t in poison_ids
        ),
        witness_tenants=witness_ids,
        witness_unharmed=witness_unharmed,
        witness_byte_exact=byte_exact,
        gateway_crashes=gateway.crashes,
        gateway_restarts=gateway.restarts,
        restored_tenants=restored[0],
        service_crashes=sum(s.crashes for s in deployment.services.values()),
        service_restarts=sum(s.restarts for s in deployment.services.values()),
        responses_accounted=responses_accounted,
        journal_records=len(deployment.journal),
        journal_diff=deployment.verify_journal(),
        planner_hosts=planner_hosts,
    )


def main() -> None:
    report = run_fleet()
    rows = []
    for row in report.classes:
        rows.append(
            (
                row.qos,
                str(row.tenants),
                str(row.issued),
                str(row.ok),
                str(row.rejected),
                str(row.timed_out),
                str(row.failed),
                f"{row.attainment:.4f}" if row.attainment is not None else "-",
                f"{row.p99_ms:.2f}" if row.p99_ms is not None else "-",
            )
        )
    print("Fleet: tenant-facing gateway front door")
    print_table(
        (
            "class", "tenants", "issued", "ok", "rejected", "timeout",
            "failed", "attainment", "p99 ms",
        ),
        rows,
    )
    print(
        f"tenants={report.num_tenants} hosts={report.hosts} "
        f"brownout peak={report.brownout_peak_level} "
        f"(shed low={report.brownout_shed_low}, high={report.brownout_shed_high}) "
        f"throttled={report.throttled} retries={report.retries} "
        f"breaker trips={report.breaker_trips}"
    )
    print(
        f"gateway crash/restart={report.gateway_crashes}/{report.gateway_restarts} "
        f"(restored {report.restored_tenants} tenants) "
        f"service crashes={report.service_crashes} "
        f"journal={report.journal_records} records "
        f"planner: {report.planner_hosts} host(s) for the fleet"
    )

    assert report.num_tenants >= 1000, "fleet must sustain >= 1000 tenants"
    assert report.responses_accounted, "a request went unanswered"
    assert not report.journal_diff, report.journal_diff
    assert report.restored_tenants == report.num_tenants, (
        "gateway restart must restore every tenant from the journal"
    )
    assert report.brownout_peak_level >= 1, "diurnal crest never browned out"
    assert report.brownout_shed_low > 0, "brownout shed no low-class traffic"
    assert report.brownout_shed_high == 0, "brownout must never shed high"
    high = next(r for r in report.classes if r.qos == "high")
    assert high.attainment is not None and high.attainment >= 0.99, (
        f"high-class attainment {high.attainment} below 0.99"
    )
    assert report.poison_tripped, "a poison tenant's breaker never tripped"
    assert report.witness_unharmed, "poison blast radius reached a witness"
    assert report.witness_byte_exact, "witness collective was not byte-exact"
    assert report.throttled > 0, "tenant storms never hit the rate limiter"
    assert report.retries > 0, "service crashes never exercised the retry path"

    out = os.environ.get("MCCS_FLEET_OUT")
    if out:
        payload = {"experiment": "fleet", "report": asdict(report)}
        with open(out, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"[fleet JSON written to {out}]")


if __name__ == "__main__":
    main()
