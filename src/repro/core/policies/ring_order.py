"""Example #1: Locality-aware ring configuration (§4.3).

"We group the participant hosts by their locality (e.g., under the same
rack, under the same pod) and then connect them in a sequential order."
The goal is to minimize the number of cross-rack / cross-pod flows, since
links above the leaf tier are oversubscribed.

This module also carries the cross-rack accounting used by Figure 3: the
*cross-rack ratio* of a ring is its number of cross-rack ring edges
normalized by the optimal ring's.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence

from ...cluster.gpu import GpuDevice
from ...cluster.specs import Cluster


def locality_ring_order(cluster: Cluster, gpus: Sequence[GpuDevice]) -> List[int]:
    """Rank permutation chaining GPUs host-by-host, hosts rack-by-rack.

    Returns the ring order as a list of ranks: ``order[i]`` is the rank at
    ring position ``i``.  Ranks on the same host are adjacent (they ride
    the intra-host channel), hosts in the same rack are adjacent (one
    cross-rack entry/exit per rack), and racks follow in index order.
    """
    by_host: Dict[int, List[int]] = {}
    for rank, gpu in enumerate(gpus):
        by_host.setdefault(gpu.host_id, []).append(rank)
    hosts = sorted(by_host, key=lambda h: (cluster.hosts[h].rack, h))
    order: List[int] = []
    for host in hosts:
        order.extend(sorted(by_host[host]))
    return order


def cross_rack_flows(
    cluster: Cluster, gpus: Sequence[GpuDevice], order: Sequence[int]
) -> int:
    """Number of ring edges whose endpoints sit in different racks."""
    n = len(order)
    count = 0
    for i in range(n):
        a = cluster.rack_of(gpus[order[i]])
        b = cluster.rack_of(gpus[order[(i + 1) % n]])
        if a != b:
            count += 1
    return count


def optimal_cross_rack_flows(cluster: Cluster, gpus: Sequence[GpuDevice]) -> int:
    """Cross-rack edges of a locality-optimal ring: one per rack spanned
    (zero when the job fits in a single rack)."""
    racks = {cluster.rack_of(g) for g in gpus}
    return len(racks) if len(racks) > 1 else 0


def cross_rack_ratio(
    cluster: Cluster, gpus: Sequence[GpuDevice], order: Sequence[int]
) -> float:
    """Figure 3's metric: cross-rack flows normalized to the optimal ring.

    Single-rack jobs have ratio 1.0 by convention (no cross traffic under
    either ring).
    """
    optimal = optimal_cross_rack_flows(cluster, gpus)
    if optimal == 0:
        return 1.0
    return cross_rack_flows(cluster, gpus, order) / optimal


def random_host_major_order(
    gpus: Sequence[GpuDevice], rng: random.Random
) -> List[int]:
    """A random *host-major* rank order.

    Users launch one process per node, so rank blocks land host by host;
    what is effectively random in practice is the host ordering.  This is
    the "random ring" of Figures 3 and 11.
    """
    by_host: Dict[int, List[int]] = {}
    for rank, gpu in enumerate(gpus):
        by_host.setdefault(gpu.host_id, []).append(rank)
    hosts = list(by_host)
    rng.shuffle(hosts)
    order: List[int] = []
    for host in hosts:
        order.extend(sorted(by_host[host]))
    return order


def expected_random_cross_rack_ratio(
    hosts_per_rack: int, num_hosts: int
) -> float:
    """Closed-form expectation of Figure 3's ratio for a random host ring.

    For a uniformly random circular order of ``num_hosts`` hosts packed
    ``hosts_per_rack`` per rack, the probability that two adjacent hosts
    share a rack is ``(hosts_per_rack - 1) / (num_hosts - 1)``, so the
    expected number of cross-rack edges is
    ``num_hosts * (1 - (hosts_per_rack - 1)/(num_hosts - 1))``, normalized
    by the optimal ring's ``num_racks`` edges.  The ratio approaches
    ``hosts_per_rack`` for large jobs — the 2x and 4x worst cases the
    paper reports for 2 and 4 hosts per rack.
    """
    if num_hosts <= hosts_per_rack:
        return 1.0
    if num_hosts % hosts_per_rack:
        raise ValueError("hosts must pack racks exactly")
    num_racks = num_hosts // hosts_per_rack
    p_same = (hosts_per_rack - 1) / (num_hosts - 1)
    expected_cross = num_hosts * (1.0 - p_same)
    return expected_cross / num_racks
