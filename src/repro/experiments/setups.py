"""Testbed experiment setups (Figure 5) and the steps figures share.

The single-application setups of §6.1:

* **4-GPU** — one GPU and one 50 Gbps virtual NIC per host;
* **8-GPU** — both GPUs and both virtual NICs of every host.

The four multi-application setups of Figure 5b place tenants A/B/C over
the 4-host x 2-GPU grid.  The figure itself is a drawing; we reconstruct
the placements from the paper's textual constraints (§6.3): tenants span
both racks (the bus-bandwidth contention is at the spine), "all
applications in setups 1, 2 and 4 use the same amount of NICs per host",
and in setup 3 "application A uses 2 GPUs and 2 NICs per host, while B
and C use only 1 per host" with A on 4 GPUs and B/C on 2 each (§6.4).
The reconstruction is recorded as a deviation in EXPERIMENTS.md.

The rest of the module is what more than one figure does on top of a
setup: bring a tenant up through the central manager, replay a training
trace, build the Figure 6/8 systems, measure a fixed or tuned strategy,
and check a data-carrying AllReduce byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..baselines.nccl import NcclCommunicator
from ..cluster.gpu import GpuDevice
from ..cluster.specs import Cluster
from ..collectives.ring import RingSchedule
from ..collectives.types import Collective
from ..core.controller import CentralManager
from ..core.deployment import MccsDeployment
from ..core.policies.ring_order import locality_ring_order
from ..core.strategy import CollectiveStrategy
from ..workloads.generator import MccsIssuer, TrafficGenerator
from ..workloads.traces import TrainingTrace, gpt_tp_trace, vgg19_dp_trace

GpuCoord = Tuple[int, int]
"""(host_id, local gpu index)"""

#: ``issue(kind, out_bytes, on_duration)``: one collective on one tenant's
#: communicator; ``on_duration`` receives its duration in seconds.
Issue = Callable[[Collective, int, Callable[[float], None]], None]


@dataclass(frozen=True)
class TenantPlacement:
    """One tenant's GPUs within a multi-application setup."""

    app_id: str
    gpus: Tuple[GpuCoord, ...]

    def resolve(self, cluster: Cluster) -> List[GpuDevice]:
        return [cluster.hosts[h].gpus[k] for h, k in self.gpus]


def single_app_gpus(cluster: Cluster, setup: str) -> List[GpuDevice]:
    """The §6.2 single-application GPU sets."""
    if setup == "4gpu":
        return [cluster.hosts[h].gpus[0] for h in range(4)]
    if setup == "8gpu":
        return [g for h in range(4) for g in cluster.hosts[h].gpus]
    raise ValueError(f"unknown single-app setup {setup!r}")


def multi_app_setups() -> Dict[str, List[TenantPlacement]]:
    """The four Figure 5b setups (reconstructed placements).

    Hosts 0-1 sit in rack 0, hosts 2-3 in rack 1; GPU k of a host owns
    virtual NIC k.

    * **setup1** — two 4-GPU tenants, each one GPU/NIC per host.
    * **setup2** — one 4-GPU tenant (one GPU per host, crossing racks)
      plus two 2-GPU tenants each contained in one rack on the second GPU
      row; every tenant uses one NIC per host, and each tenant's
      inter-host path is bottlenecked by the same 50 Gbps NIC rate, which
      realizes the §6.3 statement that the setup-2 tenants "should have
      identical inter-host GPU communication performance".
    * **setup3** — the §6.4 QoS setup: A holds both GPUs of one host per
      rack (2 GPUs + 2 NICs per host), B and C hold one GPU per host on
      the remaining pair of hosts.
    * **setup4** — two 4-GPU tenants, each holding both GPUs of one host
      per rack (2 GPUs + 2 NICs per host).
    """
    return {
        "setup1": [
            TenantPlacement("A", ((0, 0), (1, 0), (2, 0), (3, 0))),
            TenantPlacement("B", ((0, 1), (1, 1), (2, 1), (3, 1))),
        ],
        "setup2": [
            TenantPlacement("A", ((0, 0), (1, 0), (2, 0), (3, 0))),
            TenantPlacement("B", ((0, 1), (1, 1))),
            TenantPlacement("C", ((2, 1), (3, 1))),
        ],
        "setup3": [
            TenantPlacement("A", ((0, 0), (0, 1), (2, 0), (2, 1))),
            TenantPlacement("B", ((1, 0), (3, 0))),
            TenantPlacement("C", ((1, 1), (3, 1))),
        ],
        "setup4": [
            TenantPlacement("A", ((0, 0), (0, 1), (2, 0), (2, 1))),
            TenantPlacement("B", ((1, 0), (1, 1), (3, 0), (3, 1))),
        ],
    }


def qos_setup() -> List[TenantPlacement]:
    """Setup 3, used by the §6.4 training-workload QoS experiments."""
    return multi_app_setups()["setup3"]


def qos_trace(app_id: str, iterations: int) -> TrainingTrace:
    """The §6.4 workloads: A trains VGG-19 (data parallel), B and C
    fine-tune GPT (tensor parallel)."""
    if app_id == "A":
        return vgg19_dp_trace(iterations)
    return gpt_tp_trace(iterations)


def naive_tenant_order(cluster: Cluster, gpus: Sequence[GpuDevice]) -> List[int]:
    """The rank order a topology-blind tenant ends up with.

    Cloud instance lists do not reflect racks; providers spread instances
    across failure domains, so a tenant enumerating its VMs typically
    *alternates* racks — the pattern §2.2 warns about ("randomly assign
    ranks to workers in different racks could lead the ring to cross racks
    back and forth multiple times").  We model that deterministic bad
    case: rank blocks stay host-major (tenants know their own VM
    boundaries) but hosts are enumerated round-robin across racks.
    """
    by_host: Dict[int, List[int]] = {}
    for rank, gpu in enumerate(gpus):
        by_host.setdefault(gpu.host_id, []).append(rank)
    by_rack: Dict[int, List[int]] = {}
    for host in sorted(by_host):
        by_rack.setdefault(cluster.hosts[host].rack, []).append(host)
    racks = sorted(by_rack)
    interleaved: List[int] = []
    depth = max(len(hosts) for hosts in by_rack.values())
    for i in range(depth):
        for rack in racks:
            if i < len(by_rack[rack]):
                interleaved.append(by_rack[rack][i])
    order: List[int] = []
    for host in interleaved:
        order.extend(sorted(by_host[host]))
    return order


def admit_tenant(manager: CentralManager, app_id: str, gpus: Sequence[GpuDevice], **admit):
    """Admit ``app_id`` on ``gpus`` through the manager (which picks the
    ring), connect its shim and adopt the communicator.

    Returns ``(service communicator, client, client communicator)``.
    """
    state = manager.admit(app_id, gpus, **admit)
    client = manager.deployment.connect(app_id)
    return state, client, client.adopt_communicator(state.comm_id)


def trace_generator(client, comm, trace: TrainingTrace, name: str) -> TrafficGenerator:
    """Replay ``trace`` through the shim, computing on a stream of the
    communicator's rank-0 GPU."""
    return TrafficGenerator(
        client.cluster.sim,
        MccsIssuer(client, comm),
        trace,
        client.create_stream(comm.gpus[0]),
        name=name,
    )


def system_issuers(
    system: str,
    cluster: Cluster,
    tenants: Dict[str, Sequence[GpuDevice]],
    *,
    ecmp_seed: int,
    tag_nccl: bool,
    datapath_latency: Optional[float] = None,
) -> Dict[str, Issue]:
    """Each tenant's communicator under one Figure 6/8 system.

    * ``nccl`` / ``nccl_or`` — one NCCL baseline communicator per tenant,
      on the topology-blind or the locality ring; tenant ``i`` draws ECMP
      paths from ``ecmp_seed + i``, hashed on its app id when
      ``tag_nccl`` and on NCCL's own ``ncclcomm<N>`` otherwise.
    * any other name — one MCCS deployment seeded with ``ecmp_seed``
      admits every tenant with a locality ring; ``mccs`` also installs
      fair flow assignment before returning.

    ``datapath_latency`` overrides the MCCS shim->service hop (§6.2's
    50-80 us range); NCCL runs in-process and is unaffected.
    """
    issuers: Dict[str, Issue] = {}
    if system in ("nccl", "nccl_or"):
        for idx, (app_id, gpus) in enumerate(tenants.items()):
            order = (
                naive_tenant_order(cluster, gpus)
                if system == "nccl"
                else locality_ring_order(cluster, gpus)
            )
            comm = NcclCommunicator(
                cluster,
                gpus,
                ring_order=order,
                ecmp_seed=ecmp_seed + idx,
                job_id=app_id if tag_nccl else None,
            )

            def issue(kind, out_bytes, on_duration, comm=comm) -> None:
                getattr(comm, kind.value)(
                    out_bytes, on_complete=lambda op, now: on_duration(op.duration())
                )

            issuers[app_id] = issue
        return issuers
    deployment = MccsDeployment(
        cluster, ecmp_seed=ecmp_seed, datapath_latency=datapath_latency
    )
    manager = CentralManager(deployment)
    for app_id, gpus in tenants.items():
        _, client, comm = admit_tenant(manager, app_id, gpus)

        def issue(kind, out_bytes, on_duration, client=client, comm=comm) -> None:
            getattr(client, kind.value)(
                comm,
                out_bytes,
                on_complete=lambda inst, now: on_duration(inst.duration()),
            )

        issuers[app_id] = issue
    if system == "mccs":
        manager.apply_flow_policy("ffa")
        deployment.run()
    return issuers


@dataclass
class TunedResult:
    """Outcome of one live autotuner run."""

    algorithm: str
    retunes: int
    barrier_only: bool
    inconsistent: int
    first: float
    tail_mean: float

    @property
    def adopted_synth(self) -> bool:
        return self.algorithm.startswith("synth:")


def _durations(
    deployment: MccsDeployment, comm_id: int, kind: Collective, size: int, count: int
) -> List[float]:
    """Issue ``count`` collectives back to back as tenant ``A``."""
    client = deployment.connect("A")
    shim_comm = client.adopt_communicator(comm_id)
    issue = getattr(client, kind.value)
    durations: List[float] = []
    for _ in range(count):
        issue(
            shim_comm,
            size,
            on_complete=lambda inst, now: durations.append(inst.duration()),
        )
        deployment.run()
    return durations


def measure_static(
    make_cluster: Callable[[], Cluster],
    pick_gpus: Callable[[Cluster], List[GpuDevice]],
    kind: Collective,
    size: int,
    *,
    algorithm: str,
    channels: int,
    ring: Tuple[int, ...],
    iters: int,
    tag: str,
) -> float:
    """Mean duration of ``iters`` collectives under one fixed strategy.

    ``tag`` pins the communicator's ECMP namespace: every measurement
    with the same tag takes the same path draws, so callers compare
    strategies, not path luck.
    """
    cluster = make_cluster()
    deployment = MccsDeployment(cluster)
    strategy = CollectiveStrategy(
        ring=RingSchedule(tuple(ring)), channels=channels, algorithm=algorithm
    )
    comm = deployment.create_communicator(
        "A", pick_gpus(cluster), strategy=strategy, datapath_tag=tag
    )
    durations = _durations(deployment, comm.comm_id, kind, size, iters)
    return sum(durations) / len(durations)


def measure_tuned(
    make_cluster: Callable[[], Cluster],
    pick_gpus: Callable[[Cluster], List[GpuDevice]],
    kind: Collective,
    size: int,
    *,
    rounds: int,
    tail: int,
    tag: str,
) -> TunedResult:
    """Run the online tuner from the default strategy for ``rounds``
    collectives; report where it ended and its last ``tail`` mean."""
    cluster = make_cluster()
    deployment = MccsDeployment(cluster)
    tuner = deployment.enable_autotuning()
    comm = deployment.create_communicator(
        "A", pick_gpus(cluster), datapath_tag=tag
    )
    durations = _durations(deployment, comm.comm_id, kind, size, rounds)
    sessions = deployment.telemetry().sessions
    return TunedResult(
        algorithm=comm.strategy.algorithm,
        retunes=tuner.retunes_applied(comm.comm_id),
        barrier_only=bool(sessions) and all(s.barrier_enabled for s in sessions),
        inconsistent=comm.inconsistent_collectives,
        first=durations[0],
        tail_mean=sum(durations[-tail:]) / tail,
    )


def filled_all_reduce(client, comm, fill: float):
    """Issue one 256-byte AllReduce in which every rank sends ``fill``.

    Returns the op and ``exact(free)``.  Called once the op has run,
    ``exact`` says whether the op completed with every receive buffer
    holding ``fill`` times the world size, and frees the buffers when
    ``free``.
    """
    gpus = comm.gpus
    sends = [client.alloc(g, 256) for g in gpus]
    recvs = [client.alloc(g, 256) for g in gpus]
    for buf in sends:
        buf.view(np.float32)[:] = fill
    op = client.all_reduce(comm, 256, send=sends, recv=recvs)

    def exact(free: bool) -> bool:
        ok = op.completed and all(
            np.allclose(r.view(np.float32), fill * len(gpus)) for r in recvs
        )
        if free:
            for buf in sends + recvs:
                client.free(buf)
        return ok

    return op, exact
