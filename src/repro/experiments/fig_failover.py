"""Failover — recovery time and blast radius per fault type.

Not a figure from the paper, but its §4.2 premise put to work: because
collective communication is a *managed service*, infrastructure faults
are the provider's problem, and tenants see either a transparent retry or
a typed error — never a silent hang.  This experiment injects one fault
of each kind into a testbed-cluster deployment running a victim tenant
and a co-located healthy tenant, and reports:

* detection latency (fault strike to first typed failure signal),
* resolution (recovered transparently vs. degraded to a typed abort),
* recovery time (first failure to verdict, the ``mccs_recovery_seconds``
  histogram),
* collective retries and communicator aborts from telemetry,
* whether the healthy tenant was disturbed (it must not be).

``MCCS_FAILOVER_OUT=/path.json`` additionally writes the rows as a JSON
artifact (consumed by the chaos CI job).
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional

import numpy as np

from ..cluster.specs import testbed_cluster
from ..core.controller import CentralManager
from ..core.deployment import MccsDeployment
from ..faults import FaultInjector
from ..netsim.errors import CommunicatorError
from ..netsim.units import MB
from .report import print_table

#: Fault kinds exercised, in report order.
FAULT_KINDS = ("link_down", "link_degrade", "nic_fail", "host_crash")


@dataclass
class FailoverRow:
    """Per-fault-kind outcome of one failover run."""

    kind: str
    fault_time: float
    detection_s: Optional[float]
    resolution: str  # "recovered" | "aborted" | "unharmed"
    recovery_s: Optional[float]
    attempts: int
    retries: int
    victim_completed: int
    victim_issued: int
    healthy_ok: bool
    reformed: bool
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


def run_failover_case(
    kind: str,
    *,
    seed: int = 0,
    op_bytes: int = 64 * MB,
    num_ops: int = 3,
    fault_time: float = 0.004,
    deadline: float = 0.05,
) -> FailoverRow:
    """Run one fault kind against a victim tenant and report the outcome.

    The victim runs ``num_ops`` back-to-back AllReduces (the last one
    carries real data so byte-correctness is checked end to end); the
    healthy tenant runs one AllReduce that shares no failed component.
    """
    if kind not in FAULT_KINDS:
        raise ValueError(f"unknown fault kind {kind!r}")
    cluster = testbed_cluster()
    deployment = MccsDeployment(cluster, ecmp_seed=seed)
    recovery = deployment.enable_recovery(
        collective_deadline=deadline, heartbeat_until=2.0
    )
    manager = CentralManager(deployment)

    victim_gpus = [cluster.hosts[h].gpus[0] for h in range(4)]
    victim_state = manager.admit("victim", victim_gpus)
    healthy_gpus = [cluster.hosts[0].gpus[1], cluster.hosts[1].gpus[1]]
    healthy_state = manager.admit("healthy", healthy_gpus)

    victim = deployment.connect("victim")
    healthy = deployment.connect("healthy")
    vcomm = victim.adopt_communicator(victim_state.comm_id)
    hcomm = healthy.adopt_communicator(healthy_state.comm_id)

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

    cluster.sim.call_in(fault_time, strike)

    # Victim workload: the final op carries data so the recovered path is
    # checked bit-for-bit, not just for completion.
    sends = [victim.alloc(g, 256) for g in victim_gpus]
    recvs = [victim.alloc(g, 256) for g in victim_gpus]
    for buf in sends:
        buf.view(np.float32)[:] = 2.0
    victim_ops = []
    aborted_midway = False
    try:
        for _ in range(num_ops - 1):
            victim_ops.append(victim.all_reduce(vcomm, op_bytes))
        victim_ops.append(victim.all_reduce(vcomm, 256, send=sends, recv=recvs))
    except CommunicatorError:
        aborted_midway = True
    healthy_op = healthy.all_reduce(hcomm, 16 * MB)

    deployment.run()

    hub = deployment.telemetry()
    detection: Optional[float] = None
    recovery_s: Optional[float] = None
    attempts = 0
    resolution = "unharmed"
    for event in hub.events.events():
        if event.kind == "failure_detected" and detection is None:
            detection = event.time - fault_time
        elif event.kind == "recovery_attempt":
            attempts += 1
        elif event.kind == "recovery_succeeded":
            resolution = "recovered"
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
            recovery_s = event.time - fault_time - detection

    completed = sum(1 for op in victim_ops if op.completed)
    comm_obj = deployment.communicator(vcomm.comm_id)
    byte_correct: Optional[bool] = None
    if not comm_obj.aborted and not aborted_midway and victim_ops:
        byte_correct = all(
            np.allclose(r.view(np.float32), 2.0 * len(victim_gpus))
            for r in recvs
        )
    return FailoverRow(
        kind=kind,
        fault_time=fault_time,
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
        reformed=vcomm.comm_id in recovery.reformed,
        byte_correct=byte_correct,
    )


def run_failover(*, seed: int = 0, op_bytes: int = 64 * MB) -> List[FailoverRow]:
    """Run every fault kind; one isolated deployment per kind."""
    return [run_failover_case(kind, seed=seed, op_bytes=op_bytes) for kind in FAULT_KINDS]


def main() -> None:
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
            "yes" if row.reformed else "-",
            {True: "yes", False: "NO", None: "-"}[row.byte_correct],
        )
        for row in rows
    ]
    print_table(
        (
            "fault", "detect", "resolution", "recovery", "attempts",
            "retries", "victim ops", "healthy ok", "reformed", "bytes ok",
        ),
        table,
    )
    for row in rows:
        assert row.healthy_ok, f"healthy tenant disturbed by {row.kind}"
    out = os.environ.get("MCCS_FAILOVER_OUT")
    if out:
        payload: Dict[str, object] = {
            "experiment": "failover",
            "rows": [asdict(row) for row in rows],
        }
        with open(out, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"[failover JSON written to {out}]")


if __name__ == "__main__":
    main()
