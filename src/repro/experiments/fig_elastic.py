"""Elastic — live membership churn on a WAN-joined multi-region fabric.

Not a figure from the paper, but the robustness counterpart of its
premise: if collective communication is a *managed service*, a tenant's
communicator must survive the provider reshaping it — ranks joining from
a remote region, ranks leaving, WAN bandwidth drifting under someone
else's traffic, and the control plane crashing mid-churn.

The setup is two Clos regions joined by thin, high-RTT WAN links
(:func:`~repro.cluster.specs.multi_region_cluster`).  Tenant ``geo`` runs
a geo-distributed data-parallel job that starts inside region 0; tenant
``local`` is a witness contained entirely in region 1.  Each cycle the
experiment:

1. runs a burst of AllReduces on both tenants,
2. **grows** ``geo`` by a spare region-1 GPU (the communicator now
   crosses the WAN; the autotuner sees a new placement fingerprint),
3. **drifts** the WAN link capacities along a seeded random walk while
   traffic is in flight,
4. **shrinks** ``geo`` back out of region 1,
5. **crashes** one MCCS service and lets the supervisor restart it from
   the journal, and
6. issues one byte-carrying AllReduce per tenant and checks the result
   exactly.

Asserted bars: every cycle's finals are byte-exact, the journal replays
to the live control plane (``verify_journal() == []``), the witness
completes exactly its baseline count with zero failures (blast radius
zero), and at least one autotuner retune is attributed to a membership
epoch.  ``MCCS_ELASTIC_OUT=/path.json`` writes the report as a JSON
artifact (consumed by the chaos CI job).
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass
from typing import Dict, List, Sequence

import numpy as np

from ..cluster.specs import multi_region_cluster
from ..core.admission import AdmissionPolicy
from ..core.deployment import MccsDeployment
from ..faults import BandwidthDriftPlan, FaultInjector
from ..netsim.errors import MccsError
from ..netsim.fabric import RegionSpec, wan_links
from ..workloads.traces import geo_distributed_trace
from .report import print_table

#: Region-1 GPU admitted into (and later removed from) the geo tenant.
JOINER_GPU = 4
#: Region-0 host whose MCCS service is kill/restarted every cycle.
VICTIM_HOST = 1
#: AllReduces per tenant per burst phase.
BURST_OPS = 3


@dataclass
class CycleRow:
    """Outcome of one grow/drift/shrink/crash cycle."""

    cycle: int
    grow_state: str
    shrink_state: str
    world_after: int
    membership_epoch: int
    drift_events: int
    geo_bytes_ok: bool
    witness_bytes_ok: bool


@dataclass
class ElasticReport:
    seed: int
    cycles: List[CycleRow]
    geo_completed: int
    geo_failed: int
    witness_completed: int
    witness_failed: int
    witness_baseline_completed: int
    epoch_retunes: int
    membership_changes: int
    service_crashes: int
    service_restarts: int
    journal_records: int
    journal_diff: List[str]
    blast_radius_zero: bool

    @property
    def bytes_exact(self) -> bool:
        return all(c.geo_bytes_ok and c.witness_bytes_ok for c in self.cycles)


def _burst(
    client, comm, count: int, op_bytes: int, ops: List
) -> None:
    for _ in range(count):
        try:
            ops.append(client.all_reduce(comm, op_bytes))
        except MccsError:
            pass


def _byte_final(deployment: MccsDeployment, client, comm) -> bool:
    """One data-carrying AllReduce, checked exactly against the world."""
    svc = deployment.communicator(comm.comm_id)
    gpus = list(svc.gpus)
    sends = [client.alloc(g, 256) for g in gpus]
    recvs = [client.alloc(g, 256) for g in gpus]
    for buf in sends:
        buf.view(np.float32)[:] = 2.0
    op = client.all_reduce(
        comm, 256, send=[b.ref() for b in sends], recv=[b.ref() for b in recvs]
    )
    deployment.run()
    ok = op.completed and all(
        np.allclose(r.view(np.float32), 2.0 * len(gpus)) for r in recvs
    )
    for buf in sends + recvs:
        client.free(buf)
    deployment.run()
    return ok


def _run(
    *, seed: int, cycles: int, op_bytes: int, disturb: bool
) -> Dict[str, object]:
    """One full run; ``disturb=False`` is the witness baseline."""
    spec = RegionSpec()
    cluster = multi_region_cluster(spec)
    deployment = MccsDeployment(cluster, ecmp_seed=seed)
    deployment.enable_recovery(collective_deadline=1.0)
    deployment.enable_service_supervision(restart_delay=0.02)
    deployment.configure_admission(AdmissionPolicy())
    deployment.enable_autotuning()
    elastic = deployment.enable_elasticity()
    injector = FaultInjector(
        cluster, deployment.telemetry(), deployment=deployment
    )
    wan = wan_links(cluster.fabric)

    geo_client = deployment.connect("geo")
    local_client = deployment.connect("local")
    region0 = [cluster.gpu(i) for i in range(4)]
    geo_comm = geo_client.create_communicator(region0)
    witness_gpus = [cluster.gpu(6), cluster.gpu(7)]
    local_comm = local_client.create_communicator(witness_gpus)

    geo_ops: List = []
    witness_ops: List = []
    rows: List[CycleRow] = []
    membership: List = []
    trace = geo_distributed_trace(1, wan_rtt=spec.wan_rtt)
    burst_bytes = max(op_bytes, trace.steps[0].out_bytes)

    for cycle in range(cycles):
        _burst(geo_client, geo_comm, BURST_OPS, burst_bytes, geo_ops)
        _burst(local_client, local_comm, BURST_OPS, op_bytes, witness_ops)
        deployment.run()

        grow_state = shrink_state = "skipped"
        drift_events = 0
        if disturb:
            # Grow into region 1: the communicator now crosses the WAN.
            record = elastic.grow(
                geo_comm.comm_id,
                [cluster.gpu(JOINER_GPU)],
                on_done=membership.append,
            )
            deployment.run()
            grow_state = record.state
            geo_comm = geo_client.adopt_communicator(geo_comm.comm_id)

            # WAN bandwidth drift while the grown communicator trains.
            drift = BandwidthDriftPlan(
                links=wan,
                start=cluster.sim.now + 0.01,
                interval=0.05,
                steps=3,
                seed=seed * 101 + cycle,
            )
            plan = drift.to_fault_plan()
            drift_events = len(plan)
            injector.schedule(plan)
            _burst(geo_client, geo_comm, BURST_OPS, burst_bytes, geo_ops)
            _burst(local_client, local_comm, BURST_OPS, op_bytes, witness_ops)
            deployment.run()

            # Shrink back out of region 1 (graceful leave of the joiner).
            svc = deployment.communicator(geo_comm.comm_id)
            record = elastic.shrink(
                geo_comm.comm_id,
                [svc.world - 1],
                on_done=membership.append,
            )
            deployment.run()
            shrink_state = record.state
            geo_comm = geo_client.adopt_communicator(geo_comm.comm_id)

            # Kill one region-0 service; the supervisor replays the journal.
            deployment.crash_service(VICTIM_HOST)
            deployment.run()
        else:
            # Baseline issues the same witness work with no disturbance.
            _burst(geo_client, geo_comm, BURST_OPS, burst_bytes, geo_ops)
            _burst(local_client, local_comm, BURST_OPS, op_bytes, witness_ops)
            deployment.run()

        svc = deployment.communicator(geo_comm.comm_id)
        rows.append(
            CycleRow(
                cycle=cycle,
                grow_state=grow_state,
                shrink_state=shrink_state,
                world_after=svc.world,
                membership_epoch=svc.membership_epoch,
                drift_events=drift_events,
                geo_bytes_ok=_byte_final(deployment, geo_client, geo_comm),
                witness_bytes_ok=_byte_final(
                    deployment, local_client, local_comm
                ),
            )
        )

    return {
        "deployment": deployment,
        "rows": rows,
        "geo_ops": geo_ops,
        "witness_ops": witness_ops,
        "membership": membership,
    }


def run_elastic(
    *, seed: int = 0, cycles: int = 3, op_bytes: int = 4 * 1024**2
) -> ElasticReport:
    """Run the elastic churn experiment plus its no-disturbance baseline."""
    baseline = _run(seed=seed, cycles=cycles, op_bytes=op_bytes, disturb=False)
    run = _run(seed=seed, cycles=cycles, op_bytes=op_bytes, disturb=True)

    deployment: MccsDeployment = run["deployment"]
    witness_completed = sum(1 for op in run["witness_ops"] if op.completed)
    witness_failed = sum(1 for op in run["witness_ops"] if op.failed)
    baseline_completed = sum(
        1 for op in baseline["witness_ops"] if op.completed
    )
    autotuner = deployment.autotuner
    return ElasticReport(
        seed=seed,
        cycles=run["rows"],
        geo_completed=sum(1 for op in run["geo_ops"] if op.completed),
        geo_failed=sum(1 for op in run["geo_ops"] if op.failed),
        witness_completed=witness_completed,
        witness_failed=witness_failed,
        witness_baseline_completed=baseline_completed,
        epoch_retunes=(
            autotuner.epoch_retunes() if autotuner is not None else 0
        ),
        membership_changes=len(run["membership"]),
        service_crashes=sum(
            s.crashes for s in deployment.services.values()
        ),
        service_restarts=sum(
            s.restarts for s in deployment.services.values()
        ),
        journal_records=len(deployment.journal),
        journal_diff=deployment.verify_journal(),
        blast_radius_zero=(
            witness_failed == 0 and witness_completed == baseline_completed
        ),
    )


def main(seeds: Sequence[int] = (0,), cycles: int = 3) -> None:
    reports = [run_elastic(seed=seed, cycles=cycles) for seed in seeds]
    rows = []
    for report in reports:
        for cyc in report.cycles:
            rows.append(
                (
                    str(report.seed),
                    str(cyc.cycle),
                    cyc.grow_state,
                    cyc.shrink_state,
                    str(cyc.world_after),
                    str(cyc.membership_epoch),
                    str(cyc.drift_events),
                    "yes" if cyc.geo_bytes_ok else "NO",
                    "yes" if cyc.witness_bytes_ok else "NO",
                )
            )
    print_table(
        (
            "seed", "cycle", "grow", "shrink", "world", "epoch",
            "drift", "geo bytes", "witness bytes",
        ),
        rows,
    )
    for report in reports:
        print(
            f"seed {report.seed}: membership_changes="
            f"{report.membership_changes} epoch_retunes={report.epoch_retunes} "
            f"crashes={report.service_crashes} restarts="
            f"{report.service_restarts} witness={report.witness_completed}/"
            f"{report.witness_baseline_completed} journal="
            f"{report.journal_records} records"
        )
        assert report.bytes_exact, "a post-cycle collective was not byte-exact"
        assert not report.journal_diff, report.journal_diff
        assert report.blast_radius_zero, (
            "witness tenant was disturbed by elastic churn in the other region"
        )
        assert report.epoch_retunes >= 1, (
            "no autotuner retune was attributed to a membership epoch"
        )
        assert all(
            c.grow_state == "done" and c.shrink_state == "done"
            for c in report.cycles
        ), "a membership change did not commit"
    out = os.environ.get("MCCS_ELASTIC_OUT")
    if out:
        payload = {
            "experiment": "elastic",
            "reports": [asdict(report) for report in reports],
        }
        with open(out, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"[elastic JSON written to {out}]")


if __name__ == "__main__":
    main()
