"""Attribution — causal tracing validated against ground-truth sharing.

Runs the Figure 8 multi-tenant mix (all four placements) under MCCS with
and without fair flow assignment, and grades the causal tracer's
:class:`~repro.telemetry.causal.CriticalPathReport` for every completed
collective against ground truth recorded *independently* of the tracer:

* a raw flow log (tenant, path, lifetime of every injected flow) rebuilt
  from the simulator's observer hooks, from which we compute which links
  each collective's critical flow actually shared with which co-tenant;
* the placements themselves, which say who *can* contend (only tenants
  whose rings cross the oversubscribed spine share fabric links).

A collective is counted as **correctly attributed** when

1. its reported ``queue + serialization + contention`` split sums to the
   measured duration within 1%,
2. its reported bottleneck link lies on the critical flow's actual path,
3. its reported top interferer is a tenant that truly overlapped the
   critical flow on a shared link (or no interferer is reported and none
   truly existed).

The headline number is the fraction of collectives passing all three; the
who-interfered-with-whom ledger (tenant -> tenant -> seconds of shared
bottleneck time) is printed per setup and exported as JSON when
``MCCS_ATTRIBUTION_OUT`` is set.  ``MCCS_FLIGHT_OUT`` additionally dumps
the flight recorder's final snapshot for artifact upload.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core.controller import CentralManager
from ..core.deployment import MccsDeployment
from ..cluster.specs import testbed_cluster
from ..netsim.units import MB
from .report import print_table
from .setups import multi_app_setups

SYSTEMS = ("mccs", "mccs_noffa")

#: Sum-criterion tolerance: components must add up to the measured
#: duration within this fraction.
SUM_TOLERANCE = 0.01


class _FlowLog:
    """Ground-truth recorder: every flow's tenant, path, and lifetime.

    Deliberately independent of :class:`~repro.telemetry.causal.
    CausalTracer` — it reads only the raw observer hooks, so the
    experiment grades the tracer against the simulator itself.
    """

    def __init__(self, sim) -> None:
        self.sim = sim
        #: flow_id -> (tenant, links, t_start, t_end or None)
        self.flows: Dict[str, Tuple[str, Tuple[str, ...], float, Optional[float]]] = {}
        sim.add_observer(self)

    def on_flows_added(self, flows, now: float) -> None:
        for flow in flows:
            self.flows[flow.flow_id] = (
                flow.job_id or "none", tuple(flow.links), now, None
            )

    def _ended(self, flow, now: float) -> None:
        rec = self.flows.get(flow.flow_id)
        if rec is not None:
            self.flows[flow.flow_id] = (rec[0], rec[1], rec[2], now)

    def on_flows_completed(self, flows, now: float) -> None:
        for flow in flows:
            self._ended(flow, now)

    def on_flow_cancelled(self, flow, now: float) -> None:
        self._ended(flow, now)

    def on_flow_failed(self, flow, now: float) -> None:
        self._ended(flow, now)

    def on_flow_gated(self, flow, gated: bool, now: float) -> None:
        pass

    def on_rates_recomputed(self, now: float) -> None:
        pass

    # ------------------------------------------------------------------
    def truth_for(self, flow_id: str) -> Tuple[Set[str], Set[str], Set[str]]:
        """(path links, true interferer tenants, truly contended links)
        of one flow, by temporal overlap on shared links."""
        rec = self.flows.get(flow_id)
        if rec is None:
            return set(), set(), set()
        tenant, links, t0, t1 = rec
        end = t1 if t1 is not None else float("inf")
        path = set(links)
        interferers: Set[str] = set()
        contended: Set[str] = set()
        for other, olinks, o0, o1 in self.flows.values():
            if other == tenant:
                continue
            oend = o1 if o1 is not None else float("inf")
            if o0 >= end or t0 >= oend:  # no temporal overlap
                continue
            shared = path.intersection(olinks)
            if shared:
                interferers.add(other)
                contended.update(shared)
        return path, interferers, contended


@dataclass
class AttributionResult:
    """One (setup, system) cell of the attribution grid."""

    setup: str
    system: str
    collectives: int = 0
    sum_ok: int = 0
    correct: int = 0
    #: tenant -> tenant -> seconds of shared bottleneck time (as reported
    #: by the tracer's interference ledgers).
    ledger: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: Individual report dicts (kept for the JSON artifact).
    reports: List[Dict[str, object]] = field(default_factory=list)

    @property
    def accuracy(self) -> float:
        return self.correct / self.collectives if self.collectives else 0.0

    @property
    def sum_ok_fraction(self) -> float:
        return self.sum_ok / self.collectives if self.collectives else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "setup": self.setup,
            "system": self.system,
            "collectives": self.collectives,
            "sum_ok": self.sum_ok,
            "correct": self.correct,
            "accuracy": self.accuracy,
            "sum_ok_fraction": self.sum_ok_fraction,
            "ledger": {
                a: dict(sorted(row.items()))
                for a, row in sorted(self.ledger.items())
            },
            "reports": self.reports,
        }


def _grade(report, flowlog: _FlowLog) -> Tuple[bool, bool]:
    """(sum within tolerance, attribution matches ground truth)."""
    total = report.queue_s + report.serialization_s + report.contention_s
    sum_ok = (
        abs(total - report.duration_s)
        <= SUM_TOLERANCE * max(report.duration_s, 1e-12)
    )
    path, interferers, contended = flowlog.truth_for(report.critical_flow)
    bottleneck_ok = report.bottleneck_link in path
    if report.interferer is None:
        interferer_ok = not interferers
    else:
        interferer_ok = report.interferer in interferers
    return sum_ok, sum_ok and bottleneck_ok and interferer_ok


def run_attribution(
    *,
    setups: Sequence[str] = ("setup1", "setup2", "setup3", "setup4"),
    systems: Sequence[str] = SYSTEMS,
    rounds: int = 6,
    op_bytes: int = 32 * MB,
    seed: int = 0,
) -> List[AttributionResult]:
    """Sweep the attribution grid; every tenant chains ``rounds`` AllReduces."""
    all_setups = multi_app_setups()
    results: List[AttributionResult] = []
    for setup_name in setups:
        placements = all_setups[setup_name]
        for system in systems:
            cluster = testbed_cluster()
            deployment = MccsDeployment(cluster, ecmp_seed=seed * 131)
            manager = CentralManager(deployment)
            flowlog = _FlowLog(cluster.sim)
            remaining = {p.app_id: rounds for p in placements}

            def make_chain(client, comm, app_id):
                def chain(_inst, _now) -> None:
                    remaining[app_id] -= 1
                    if remaining[app_id] > 0:
                        client.all_reduce(comm, op_bytes, on_complete=chain)

                return chain

            starters = []
            for placement in placements:
                state = manager.admit(
                    placement.app_id, placement.resolve(cluster)
                )
                client = deployment.connect(placement.app_id)
                comm = client.adopt_communicator(state.comm_id)
                starters.append((client, comm, placement.app_id))
            if system == "mccs":
                manager.apply_flow_policy("ffa")
                cluster.sim.run()
            for client, comm, app_id in starters:
                client.all_reduce(
                    comm, op_bytes,
                    on_complete=make_chain(client, comm, app_id),
                )
            cluster.sim.run()

            hub = deployment.telemetry()
            tracer = hub.causal
            result = AttributionResult(setup=setup_name, system=system)
            for trace in tracer.closed_traces():
                if trace.status != "completed":
                    continue
                report = tracer.critical_path(trace)
                if report is None:
                    continue
                result.collectives += 1
                sum_ok, correct = _grade(report, flowlog)
                result.sum_ok += int(sum_ok)
                result.correct += int(correct)
                row = result.ledger.setdefault(report.trace.tenant, {})
                for other, seconds in report.interference.items():
                    row[other] = row.get(other, 0.0) + seconds
                result.reports.append(
                    dict(report.to_dict(), sum_ok=sum_ok, correct=correct)
                )
            results.append(result)
    return results


def export_artifacts(results: List[AttributionResult], hub=None) -> None:
    """Write the JSON artifacts named by the ``MCCS_*_OUT`` env vars."""
    out_path = os.environ.get("MCCS_ATTRIBUTION_OUT")
    if out_path:
        with open(out_path, "w") as fh:
            json.dump(
                {"results": [r.to_dict() for r in results]}, fh, indent=2
            )
    flight_path = os.environ.get("MCCS_FLIGHT_OUT")
    if flight_path and hub is not None:
        hub.flight.trigger("manual", 0.0, source="fig_attribution")
        hub.flight.write_json(flight_path)


def main(rounds: int = 6) -> None:
    results = run_attribution(rounds=rounds)
    rows = []
    for r in results:
        pairs = sorted(
            (
                (a, b, s)
                for a, row in r.ledger.items()
                for b, s in row.items()
            ),
            key=lambda t: -t[2],
        )
        top = f"{pairs[0][0]}<-{pairs[0][1]} {pairs[0][2]:.3f}s" if pairs else "-"
        rows.append(
            [
                r.setup,
                r.system,
                str(r.collectives),
                f"{100 * r.sum_ok_fraction:.1f}%",
                f"{100 * r.accuracy:.1f}%",
                top,
            ]
        )
    print_table(
        ["Setup", "System", "Collectives", "Sum<=1%", "Attribution", "Top interference"],
        rows,
        title="Causal attribution vs ground truth (fig08 multi-tenant mix)",
    )
    # Re-run one contended cell to hand its hub to the artifact writer:
    # the flight dump should come from a deployment that actually saw
    # interference, not an empty one.
    hub = None
    if os.environ.get("MCCS_FLIGHT_OUT"):
        cluster = testbed_cluster()
        deployment = MccsDeployment(cluster, ecmp_seed=0)
        manager = CentralManager(deployment)
        placements = multi_app_setups()["setup1"]
        for placement in placements:
            state = manager.admit(placement.app_id, placement.resolve(cluster))
            client = deployment.connect(placement.app_id)
            comm = client.adopt_communicator(state.comm_id)
            client.all_reduce(comm, 32 * MB)
        cluster.sim.run()
        hub = deployment.telemetry()
    export_artifacts(results, hub)


if __name__ == "__main__":
    main()
