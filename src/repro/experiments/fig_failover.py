"""Failover — recovery time and blast radius per fault type.

Not a figure from the paper, but its §4.2 premise put to work: because
collective communication is a *managed service*, infrastructure faults
are the provider's problem, and tenants see either a transparent retry or
a typed error — never a silent hang.  This experiment injects one fault
of each kind into a testbed-cluster deployment running a victim tenant
and a co-located healthy tenant, and reports:

* detection latency (fault strike to first typed failure signal),
* resolution (recovered transparently, shrunk to the survivors, or
  degraded to a typed abort),
* recovery time (first failure to verdict, the ``mccs_recovery_seconds``
  histogram),
* collective retries and communicator aborts from telemetry,
* whether the healthy tenant was disturbed (it must not be).

The ``failover`` artifact holds the rows (the chaos CI job uploads it).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Tuple

from ..cluster.specs import testbed_cluster
from ..core.controller import CentralManager
from ..core.deployment import MccsDeployment
from ..faults import FaultInjector
from ..netsim.errors import CommunicatorError
from ..netsim.units import MB
from .report import broken, print_table, require
from .setups import admit_tenant, filled_all_reduce

#: Fault kinds exercised, in report order.
FAULT_KINDS = ("link_down", "link_degrade", "nic_fail", "host_crash")
#: The victim's back-to-back AllReduces and their bytes.
NUM_OPS = 3
OP_BYTES = 64 * MB
#: Simulated seconds: when the fault strikes, and the collective deadline.
FAULT_TIME = 0.004
DEADLINE = 0.05


@dataclass
class FailoverRow:
    """Per-fault-kind outcome of one failover run."""

    kind: str
    fault_time: float
    detection_s: Optional[float]
    resolution: str  # "recovered" | "shrunk" | "aborted" | "unharmed"
    recovery_s: Optional[float]
    attempts: int
    retries: int
    victim_completed: int
    victim_issued: int
    healthy_ok: bool
    world: Tuple[int, int]  # victim world size before, after
    byte_correct: Optional[bool]


def _live_spine_link(cluster) -> Optional[str]:
    """A spine link currently carrying traffic (deterministic pick)."""
    links = sorted(
        {
            link
            for flow in cluster.sim.active_flows()
            for link in flow.links
            if "spine" in link
        }
    )
    return links[0] if links else None


def run_failover_case(kind: str) -> FailoverRow:
    """Run one fault kind against a victim tenant and report the outcome.

    The victim runs ``NUM_OPS`` back-to-back AllReduces (the last one —
    or, once shrunk, one more on the survivors — carries real data so
    byte-correctness is checked end to end); the healthy tenant runs one
    AllReduce that shares no failed component.
    """
    if kind not in FAULT_KINDS:
        raise ValueError(f"unknown fault kind {kind!r}")
    cluster = testbed_cluster()
    deployment = MccsDeployment(cluster, ecmp_seed=0)
    deployment.enable_recovery(
        collective_deadline=DEADLINE, heartbeat_until=2.0
    )
    manager = CentralManager(deployment)

    victim_gpus = [cluster.hosts[h].gpus[0] for h in range(4)]
    _, victim, vcomm = admit_tenant(manager, "victim", victim_gpus)
    healthy_gpus = [cluster.hosts[0].gpus[1], cluster.hosts[1].gpus[1]]
    _, healthy, hcomm = admit_tenant(manager, "healthy", healthy_gpus)

    injector = FaultInjector(
        cluster, deployment.telemetry(), deployment=deployment
    )

    def strike() -> None:
        if kind == "link_down":
            link = _live_spine_link(cluster) or "leaf0->spine0"
            injector.fail_link(link)
        elif kind == "link_degrade":
            # A transient brown-out: the link keeps 5% of its capacity
            # for 80 ms, long enough to blow the collective deadline.
            link = _live_spine_link(cluster) or "leaf0->spine0"
            injector.degrade_link(link, 0.05)
            cluster.sim.call_in(0.08, lambda: injector.restore_capacity(link))
        elif kind == "nic_fail":
            injector.fail_nic(1, 0)
        elif kind == "host_crash":
            injector.crash_host(3)

    cluster.sim.call_in(FAULT_TIME, strike)

    # Victim workload: the final op carries data so the recovered path is
    # checked bit-for-bit, not just for completion.  ``exact`` stays None
    # when the communicator aborts before the final op is issued.
    victim_ops = []
    exact = None
    try:
        for _ in range(NUM_OPS - 1):
            victim_ops.append(victim.all_reduce(vcomm, OP_BYTES))
        final, exact = filled_all_reduce(victim, vcomm, 2.0)
        victim_ops.append(final)
    except CommunicatorError:
        pass
    healthy_op = healthy.all_reduce(hcomm, 16 * MB)

    deployment.run()

    hub = deployment.telemetry()
    detection: Optional[float] = None
    recovery_s: Optional[float] = None
    attempts = 0
    resolution = "unharmed"
    for event in hub.events.events():
        if event.kind == "failure_detected" and detection is None:
            detection = event.time - FAULT_TIME
        elif event.kind == "recovery_attempt":
            attempts += 1
        elif event.kind == "recovery_succeeded":
            resolution = "recovered"
        elif event.kind == "recovery_shrunk":
            resolution = "shrunk"
        elif event.kind == "recovery_gave_up":
            resolution = "aborted"
    histogram = hub.metrics.histogram(
        "mccs_recovery_seconds",
        "First-failure-to-recovered time of repair episodes, by fault kind.",
    )
    for labels, state in histogram.samples():
        if state.count:
            recovery_s = state.sum / state.count
    if resolution == "aborted" and detection is not None:
        for event in hub.events.events("recovery_gave_up"):
            recovery_s = event.time - FAULT_TIME - detection

    completed = sum(1 for op in victim_ops if op.completed)
    survivor = deployment.communicator(vcomm.comm_id)
    byte_correct: Optional[bool] = None
    if survivor.world != len(victim_gpus):
        _, exact = filled_all_reduce(
            victim, victim.adopt_communicator(vcomm.comm_id), 2.0
        )
        deployment.run()
    if exact is not None and not survivor.aborted:
        byte_correct = exact(free=False)
    return FailoverRow(
        kind=kind,
        fault_time=FAULT_TIME,
        detection_s=detection,
        resolution=resolution,
        recovery_s=recovery_s,
        attempts=attempts,
        retries=int(
            hub.metrics.counter(
                "mccs_collectives_retried_total",
                "Collective relaunches driven by failure recovery.",
            ).total()
        ),
        victim_completed=completed,
        victim_issued=len(victim_ops),
        healthy_ok=healthy_op.completed,
        world=(len(victim_gpus), survivor.world),
        byte_correct=byte_correct,
    )


def run_failover() -> List[FailoverRow]:
    """Run every fault kind; one isolated deployment per kind."""
    return [run_failover_case(kind) for kind in FAULT_KINDS]


def check(rows: List[FailoverRow]) -> List[str]:
    """The failover claims that ``rows`` break."""
    return broken({f"{row.kind} leaves the healthy tenant alone": row.healthy_ok for row in rows})


def main() -> Dict[str, object]:
    rows = run_failover()
    table = [
        (
            row.kind,
            f"{row.detection_s * 1e3:.2f} ms" if row.detection_s is not None else "-",
            row.resolution,
            f"{row.recovery_s * 1e3:.2f} ms" if row.recovery_s is not None else "-",
            str(row.attempts),
            str(row.retries),
            f"{row.victim_completed}/{row.victim_issued}",
            "yes" if row.healthy_ok else "NO",
            "-" if row.world[0] == row.world[1] else "{}→{}".format(*row.world),
            {True: "yes", False: "NO", None: "-"}[row.byte_correct],
        )
        for row in rows
    ]
    print_table(
        (
            "fault", "detect", "resolution", "recovery", "attempts",
            "retries", "victim ops", "healthy ok", "world", "bytes ok",
        ),
        table,
    )
    require(check(rows))
    return {
        "failover": {"experiment": "failover", "rows": [asdict(row) for row in rows]}
    }
