"""Crashloop — control-plane resilience under kill/restart/upgrade cycles.

Not a figure from the paper, but the logical stress test of its premise:
if collective communication is a *managed service* (§3), then the service
process itself is infrastructure and must be allowed to die.  This
experiment runs the Figure 8 setup-2 multi-tenant workload (tenant A on
one GPU per host across both racks, B contained in rack 0, C contained in
rack 1) while the MCCS services on rack 1's hosts are repeatedly killed,
restarted from the state journal, and finally upgraded live through
the Figure 4 reconfiguration barrier.  It reports, per tenant:

* collectives issued / completed / failed (typed, never hung),
* shim reissues after hitting a down service,
* mean collective duration vs. a no-fault baseline run,

and deployment-wide: service crashes/restarts, upgrade drains, journal
size and replay-vs-live consistency, and admission sheds.  Tenant B
shares no host with the victims, so its run must be indistinguishable
from the baseline — the blast-radius-zero witness.  The final collective
of every surviving tenant carries real data and is checked byte-exactly.
The ``crashloop`` artifact holds every report (the chaos CI job uploads
it).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional

from ..cluster.specs import testbed_cluster
from ..core.admission import AdmissionPolicy
from ..core.controller import CentralManager
from ..core.deployment import MccsDeployment
from ..netsim.errors import MccsError
from ..netsim.units import MB
from .report import broken, print_table, require
from .setups import admit_tenant, filled_all_reduce, multi_app_setups

#: Hosts whose service processes are kill/restart cycled (rack 1).
VICTIM_HOSTS = (2, 3)
#: QoS class per tenant (A is the high-priority training job).
QOS_CLASSES = {"A": "high", "B": "normal", "C": "low"}
#: Seeds of the full-scale run, one crashloop (and baseline) each.
SEEDS = (0, 1)
#: Bytes of each chained AllReduce; simulated seconds tenants keep issuing.
OP_BYTES = 16 * MB
DURATION = 0.5
#: Service kill/restart cycles of a crashloop run.
CYCLES = 2


@dataclass
class TenantRow:
    """Per-tenant outcome of one crashloop run."""

    app_id: str
    qos: str
    issued: int
    completed: int
    failed: int
    shim_retries: int
    mean_duration_s: Optional[float]
    baseline_completed: int
    byte_correct: Optional[bool]


@dataclass
class CrashloopReport:
    """One crashloop run plus its no-fault baseline."""

    seed: int
    cycles: int
    tenants: List[TenantRow]
    service_crashes: int
    service_restarts: int
    upgrades_done: int
    upgrade_drained_comms: int
    admission_sheds: int
    journal_records: int
    journal_compacted: int
    #: Mismatch lines from replaying the journal against the live state
    #: (must be empty).
    journal_diff: List[str]
    #: B completed as many collectives as in the fault-free baseline.
    blast_radius_zero: bool


def _run_workload(*, seed: int, inject: bool) -> Dict[str, object]:
    """One full run; ``inject=False`` is the baseline for comparison."""
    cluster = testbed_cluster()
    deployment = MccsDeployment(cluster, ecmp_seed=seed)
    deployment.enable_recovery(collective_deadline=0.25)
    deployment.enable_service_supervision(restart_delay=0.02)
    admission = deployment.configure_admission(
        AdmissionPolicy(classes=(("high", 64), ("normal", 32), ("low", 16)))
    )
    manager = CentralManager(deployment)
    placements = multi_app_setups()["setup2"]

    clients = {}
    comms = {}
    ops: Dict[str, List] = {}
    for placement in placements:
        app_id = placement.app_id
        admission.set_class(app_id, QOS_CLASSES[app_id])
        _, clients[app_id], comms[app_id] = admit_tenant(
            manager, app_id, placement.resolve(cluster)
        )
        ops[app_id] = []

    def make_chain(app_id: str) -> Callable[[object, float], None]:
        def chain(_instance: object, _now: float) -> None:
            if cluster.sim.now < DURATION:
                issue(app_id)

        return chain

    def issue(app_id: str) -> None:
        try:
            op = clients[app_id].all_reduce(
                comms[app_id], OP_BYTES, on_complete=make_chain(app_id)
            )
        except MccsError:
            # Typed rejection (admission shed, aborted communicator, dead
            # root service at issue time): recorded, never a hang.
            return
        ops[app_id].append(op)

    for placement in placements:
        issue(placement.app_id)

    upgrade_sessions: List[object] = []
    if inject:
        # Kill/restart cycles: alternate victims, spaced through the run;
        # the supervisor performs every restart from the journal.
        for i in range(CYCLES):
            host_id = VICTIM_HOSTS[i % len(VICTIM_HOSTS)]
            when = DURATION * (0.15 + 0.55 * i / max(CYCLES - 1, 1))
            cluster.sim.call_in(
                when,
                lambda host_id=host_id: deployment.crash_service(host_id),
            )
        # One live upgrade of the first victim after the cycles settle.
        def start_upgrade() -> None:
            service = deployment.service_of(VICTIM_HOSTS[0])
            if service.alive:
                upgrade_sessions.append(service.upgrade())

        cluster.sim.call_in(DURATION * 0.85, start_upgrade)

    deployment.run()

    # Post-drain: one byte-carrying collective per surviving tenant.
    byte_correct: Dict[str, Optional[bool]] = {}
    for placement in placements:
        app_id = placement.app_id
        if deployment.communicator(comms[app_id].comm_id).aborted:
            byte_correct[app_id] = None
            continue
        _, exact = filled_all_reduce(clients[app_id], comms[app_id], 3.0)
        deployment.run()
        byte_correct[app_id] = exact(free=False)

    compacted = deployment.journal.compact()
    return {
        "deployment": deployment,
        "clients": clients,
        "ops": ops,
        "byte_correct": byte_correct,
        "upgrades": upgrade_sessions,
        "compacted": compacted,
    }


def run_crashloop(*, seed: int = 0) -> CrashloopReport:
    """Run the crashloop and its no-fault baseline; compare and report."""
    baseline = _run_workload(seed=seed, inject=False)
    run = _run_workload(seed=seed, inject=True)

    deployment: MccsDeployment = run["deployment"]
    tenants: List[TenantRow] = []
    for app_id in sorted(run["ops"]):
        app_ops = run["ops"][app_id]
        completed = sum(1 for op in app_ops if op.completed)
        failed = sum(1 for op in app_ops if op.failed)
        durations = [op.duration() for op in app_ops if op.completed]
        tenants.append(
            TenantRow(
                app_id=app_id,
                qos=QOS_CLASSES[app_id],
                issued=len(app_ops),
                completed=completed,
                failed=failed,
                shim_retries=run["clients"][app_id].retries_total,
                mean_duration_s=(
                    sum(durations) / len(durations) if durations else None
                ),
                baseline_completed=sum(
                    1 for op in baseline["ops"][app_id] if op.completed
                ),
                byte_correct=run["byte_correct"][app_id],
            )
        )

    witness = next(row for row in tenants if row.app_id == "B")
    services = deployment.services.values()
    upgrades = run["upgrades"]
    return CrashloopReport(
        seed=seed,
        cycles=CYCLES,
        tenants=tenants,
        service_crashes=sum(s.crashes for s in services),
        service_restarts=sum(s.restarts for s in services),
        upgrades_done=sum(1 for s in upgrades if s.done and not s.failed),
        upgrade_drained_comms=sum(len(s.drained_comms) for s in upgrades),
        admission_sheds=(
            deployment.admission.shed_total
            if deployment.admission is not None
            else 0
        ),
        journal_records=len(deployment.journal),
        journal_compacted=run["compacted"],
        journal_diff=deployment.verify_journal(),
        blast_radius_zero=(
            witness.failed == 0
            and witness.completed >= witness.baseline_completed
        ),
    )


def check(reports: List[CrashloopReport]) -> List[str]:
    """The crashloop claims that ``reports`` break."""
    claims = {}
    for r in reports:
        claims.update({
            f"seed {r.seed}: journal replays clean {r.journal_diff}": not r.journal_diff,
            f"seed {r.seed}: rack-1 crashes leave witness B alone": r.blast_radius_zero,
            f"seed {r.seed}: all but the last of {r.service_crashes} crashes restart": (
                r.service_restarts >= r.service_crashes - 1
            ),
            f"seed {r.seed}: no tenant's data is corrupt": all(
                row.byte_correct is not False for row in r.tenants
            ),
        })
    return broken(claims)


def main() -> Dict[str, object]:
    reports = [run_crashloop(seed=seed) for seed in SEEDS]
    rows = []
    for report in reports:
        for row in report.tenants:
            rows.append(
                (
                    str(report.seed),
                    row.app_id,
                    row.qos,
                    f"{row.completed}/{row.issued}",
                    str(row.failed),
                    str(row.shim_retries),
                    f"{row.mean_duration_s * 1e3:.2f} ms"
                    if row.mean_duration_s is not None
                    else "-",
                    str(row.baseline_completed),
                    {True: "yes", False: "NO", None: "-"}[row.byte_correct],
                )
            )
    print_table(
        (
            "seed", "tenant", "qos", "done/issued", "failed", "reissues",
            "mean", "baseline", "bytes ok",
        ),
        rows,
    )
    for report in reports:
        print(
            f"seed {report.seed}: crashes={report.service_crashes} "
            f"restarts={report.service_restarts} "
            f"upgrades={report.upgrades_done} "
            f"(drained {report.upgrade_drained_comms} comm(s)) "
            f"sheds={report.admission_sheds} "
            f"journal={report.journal_records} records "
            f"(compacted {report.journal_compacted})"
        )
    require(check(reports))
    return {
        "crashloop": {
            "experiment": "crashloop",
            "reports": [asdict(report) for report in reports],
        }
    }
