"""Topology-aware cost estimation for candidate collective strategies.

The planner scores a candidate with exactly the two terms a launch is
charged in simulation: the fixed latency of its plan's step count
(:meth:`LatencyModel.collective_latency
<repro.collectives.cost_model.LatencyModel.collective_latency>`, what
``transport/launcher.py`` and the communicator wait before injecting
flows) plus the serial transfer time of the busiest resource the
placement exposes (per-NIC egress/ingress, per-rack spine uplinks where
the testbed's 2:1 oversubscription bites, the intra-host channel, the
directed WAN links).  The second term is SCCL's bandwidth lower bound
(arXiv 2008.08708), so the estimate never exceeds the simulated
duration; it equals it whenever the busiest resource is saturated for
the whole collective, as for a one-channel ring in rank order.

Traffic and step counts are the candidate algorithm's own
(:meth:`CollectiveAlgorithm.rank_transfers
<repro.core.algorithms.CollectiveAlgorithm.rank_transfers>` and
``.steps``, both views of its compiled plan) — the very flows the fluid
simulator would launch.  :func:`estimate_seconds` is the one estimate:
the planner scores built-ins with it and the synthesizer scores its
programs with it, both handing over the algorithm object.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..cluster.gpu import GpuDevice
from ..cluster.specs import Cluster
from ..collectives.cost_model import LatencyModel, MCCS_LATENCY
from ..collectives.types import Collective
from ..core.algorithms import AlgorithmContext, CollectiveAlgorithm
from ..netsim.fabric import RegionSpec
from ..netsim.units import gBps, gbps

#: Bytes per directed (src_rank, dst_rank) pair for one collective.
PairTraffic = Dict[Tuple[int, int], float]


def rank_regions(
    cluster: Cluster, gpus: Sequence[GpuDevice]
) -> Optional[List[int]]:
    """Region of every rank on a multi-region fabric; ``None`` on a
    single-region one, where no transfer crosses a WAN."""
    spec = cluster.fabric.spec
    if not isinstance(spec, RegionSpec):
        return None
    return [spec.region_of_host(gpu.host_id) for gpu in gpus]


def topology_fingerprint(cluster: Cluster, gpus: Sequence[GpuDevice]) -> str:
    """Stable key describing fabric + placement *shape* (not identity).

    Two placements with the same per-host GPU counts on the same fabric
    share synthesized programs; moving a job to differently-shaped hosts
    (or another fabric) leaves them behind.
    """
    spec = cluster.fabric.spec
    per_host: Dict[int, int] = {}
    for gpu in gpus:
        per_host[gpu.host_id] = per_host.get(gpu.host_id, 0) + 1
    shape = "x".join(str(per_host[h]) for h in sorted(per_host))
    racks = {cluster.rack_of(gpu) for gpu in gpus}
    key = (
        f"{spec.name}/spines{spec.num_spines}@{spec.fabric_gbps:g}g"
        f"/nic{spec.nic_gbps:g}g/hosts{len(per_host)}[{shape}]"
        f"/racks{len(racks)}"
    )
    regions = rank_regions(cluster, gpus)
    if regions is not None:
        # WAN-crossing placements tune completely differently from
        # single-region ones; keep their programs apart.
        key += f"/regions{len(set(regions))}"
    return key


def _context(kind: Collective, order: Sequence[int], out_bytes: float):
    """A candidate collective as its algorithm sees it: one channel wide
    (:func:`bottleneck_seconds` spreads pairs over the channels itself),
    rooted at the head of the ring."""
    order = tuple(order)
    return AlgorithmContext(
        kind=kind,
        out_bytes=out_bytes,
        world=len(order),
        rank=order[0],
        root=order[0],
        ring_order=order,
        channels=1,
    )


def pair_traffic(
    algorithm: CollectiveAlgorithm,
    kind: Collective,
    order: Sequence[int],
    out_bytes: float,
) -> PairTraffic:
    """Per-(src_rank, dst_rank) bytes of one collective under ``algorithm``:
    the sum of the transfers every rank would launch, fallbacks included."""
    traffic: PairTraffic = {}
    for rank, transfer in algorithm.transfers(_context(kind, order, out_bytes)):
        pair = (rank, transfer.dst_rank)
        traffic[pair] = traffic.get(pair, 0.0) + transfer.nbytes
    return traffic


def bottleneck_seconds(
    cluster: Cluster,
    gpus: Sequence[GpuDevice],
    traffic: PairTraffic,
    channels: int,
) -> float:
    """Serial transfer time of the most loaded resource on the placement.

    Considers per-NIC egress and ingress (bytes split over the channel->NIC
    rotation), per-rack spine uplink/downlink aggregate (one
    ``fabric_gbps`` link to each spine the leaf reaches — the
    oversubscription bottleneck), the intra-host channel for co-located
    pairs, and — on geo-distributed fabrics — the directed WAN link
    between each region pair, whose bandwidth is typically the scarcest
    resource of all.
    """
    spec = cluster.fabric.spec
    regions = rank_regions(cluster, gpus)
    nic_bw = gbps(spec.nic_gbps)
    # A leaf uplinks to its own region's spines only.
    spines = spec.num_spines if regions is None else spec.spines_per_region
    uplink_bw = spines * gbps(spec.fabric_gbps)
    local_bw = gBps(spec.local_gBps)

    nic_out: Dict[str, float] = {}
    nic_in: Dict[str, float] = {}
    rack_out: Dict[int, float] = {}
    rack_in: Dict[int, float] = {}
    wan: Dict[Tuple[int, int], float] = {}
    local: Dict[int, float] = {}
    for (src_rank, dst_rank), nbytes in traffic.items():
        src, dst = gpus[src_rank], gpus[dst_rank]
        if src.host_id == dst.host_id:
            local[src.host_id] = local.get(src.host_id, 0.0) + nbytes
            continue
        per_channel = nbytes / channels
        for channel in range(channels):
            src_nic = cluster.nic_of_channel(src, channel)
            dst_nic = cluster.nic_of_channel(dst, channel)
            nic_out[src_nic] = nic_out.get(src_nic, 0.0) + per_channel
            nic_in[dst_nic] = nic_in.get(dst_nic, 0.0) + per_channel
        src_rack, dst_rack = cluster.rack_of(src), cluster.rack_of(dst)
        if src_rack != dst_rack:
            rack_out[src_rack] = rack_out.get(src_rack, 0.0) + nbytes
            rack_in[dst_rack] = rack_in.get(dst_rack, 0.0) + nbytes
        if regions is not None and regions[src_rank] != regions[dst_rank]:
            pair = (regions[src_rank], regions[dst_rank])
            wan[pair] = wan.get(pair, 0.0) + nbytes

    worst = 0.0
    for load in list(nic_out.values()) + list(nic_in.values()):
        worst = max(worst, load / nic_bw)
    for load in list(rack_out.values()) + list(rack_in.values()):
        worst = max(worst, load / uplink_bw)
    for load in wan.values():
        worst = max(worst, load / gbps(spec.wan_gbps))
    for load in local.values():
        worst = max(worst, load / local_bw)
    return worst


def estimate_seconds(
    cluster: Cluster,
    gpus: Sequence[GpuDevice],
    kind: Collective,
    out_bytes: int,
    *,
    algorithm: CollectiveAlgorithm,
    channels: int,
    ring: Sequence[int],
    latency: LatencyModel = MCCS_LATENCY,
) -> float:
    """Predicted completion time of one collective under a candidate —
    a built-in family or a synthesized program alike: the launch's fixed
    latency plus the busiest resource's serial time."""
    steps = algorithm.steps(_context(kind, ring, out_bytes))
    traffic = pair_traffic(algorithm, kind, ring, out_bytes)
    return latency.collective_latency(steps) + bottleneck_seconds(
        cluster, gpus, traffic, channels
    )
