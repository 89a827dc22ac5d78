"""Figure 2 — training-time breakdown across product groups.

The paper's figure shows, for models of four product groups at a large
social network company, the share of training time spent idle, in
CPU<->GPU memcpy, in exposed compute, and in exposed communication; its
takeaway is that "data communication constitutes a significant portion of
the training time."

The production data is proprietary, so this experiment (a) regenerates a
synthetic four-group breakdown with the same qualitative property
(documented substitution), and (b) *validates* the communication-heavy
claim against our own simulator by replaying a VGG-19 data-parallel trace
on the testbed and measuring the exposed-communication share from the
MCCS tracing API.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..cluster.specs import testbed_cluster
from ..core.controller import CentralManager
from ..core.deployment import MccsDeployment
from ..workloads.production import TrainingBreakdown, product_group_breakdowns
from ..workloads.traces import vgg19_dp_trace
from .report import broken, print_table, require
from .setups import admit_tenant, single_app_gpus, trace_generator

#: Seed of the synthetic product-group breakdown.
SEED = 2024


@dataclass(frozen=True)
class MeasuredBreakdown:
    """Four-way wall-time split measured from a simulated run, matching
    the categories of the paper's Figure 2."""

    workload: str
    idle_fraction: float
    memcpy_fraction: float
    compute_fraction: float
    comm_fraction: float


def run_breakdowns(seed: int = SEED) -> List[TrainingBreakdown]:
    """The synthetic four-group breakdown standing in for Figure 2."""
    return product_group_breakdowns(seed=seed)


def measure_vgg_breakdown(iterations: int = 4) -> MeasuredBreakdown:
    """Replay VGG-19 DP on the 8-GPU testbed and split its wall time.

    Exposed communication time comes from the trace's merged busy
    intervals; compute and host->device minibatch staging (memcpy) come
    from the generator's accounting; the remainder (datapath latency,
    launch gaps) is idle.
    """
    cluster = testbed_cluster()
    deployment = MccsDeployment(cluster)
    comm_state, client, comm = admit_tenant(
        CentralManager(deployment), "vgg", single_app_gpus(cluster, "8gpu")
    )
    generator = trace_generator(client, comm, vgg19_dp_trace(iterations), "vgg")
    generator.start()
    deployment.run()
    jct = generator.stats.jct()
    busy = sum(e - s for s, e in deployment.trace(comm_state.comm_id).busy_intervals())
    comm_fraction = min(busy / jct, 1.0)
    compute_fraction = generator.stats.compute_seconds / jct
    memcpy_fraction = generator.stats.memcpy_seconds / jct
    idle = max(1.0 - comm_fraction - compute_fraction - memcpy_fraction, 0.0)
    return MeasuredBreakdown(
        workload="vgg19-dp-8gpu",
        idle_fraction=idle,
        memcpy_fraction=memcpy_fraction,
        compute_fraction=compute_fraction,
        comm_fraction=comm_fraction,
    )


def check(result: Tuple[List[TrainingBreakdown], MeasuredBreakdown]) -> List[str]:
    """Figure 2's claims that ``(breakdowns, measured)`` breaks."""
    breakdowns, m = result
    shares = m.idle_fraction + m.memcpy_fraction + m.compute_fraction + m.comm_fraction
    return broken({
        "every group communicates >= 10% of its time": all(b.comm >= 0.10 for b in breakdowns),
        f"measured comm share {m.comm_fraction:.3f} in [0.05, 0.95]": (
            0.05 <= m.comm_fraction <= 0.95
        ),
        "measured memcpy share > 0": m.memcpy_fraction > 0,
        f"measured shares sum to {shares:.9f} == 1": abs(shares - 1.0) <= 1e-6,
    })


def main() -> Dict[str, object]:
    breakdowns = run_breakdowns(SEED)
    rows = [
        (b.group, f"{b.idle:.0%}", f"{b.memcpy:.0%}", f"{b.compute:.0%}", f"{b.comm:.0%}")
        for b in breakdowns
    ]
    print_table(
        ["Group", "Idle", "Memcpy", "Compute", "Comm"],
        rows,
        title="Figure 2 — training-time breakdown (synthetic production groups)",
    )
    measured = measure_vgg_breakdown()
    print_table(
        ["Workload", "Idle", "Memcpy", "Compute", "Comm"],
        [
            (
                measured.workload,
                f"{measured.idle_fraction:.0%}",
                f"{measured.memcpy_fraction:.0%}",
                f"{measured.compute_fraction:.0%}",
                f"{measured.comm_fraction:.0%}",
            )
        ],
        title="Validation — measured on the simulated testbed",
    )
    require(check((breakdowns, measured)))
    return {}
