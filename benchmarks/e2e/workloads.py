"""The six benchmark workloads, driven through the public surface.

Each workload builds its cluster and tenants in ``setup()`` and then runs
identical *rounds*.  A round is a fixed op sequence (closed-loop
workloads) or a fixed span of simulated time (open-loop ones), so the
work in a round does not depend on how fast the host is.  ``--seed``
drives placements, arrivals, tenant populations, ring shuffles and buffer
contents (on ``multi_tenant``: labels and ECMP only, see there); the
program under test only ever sees the generated inputs.  The two reads
that go below the surface are in ``Census`` and go through ``peek``.

Payloads are small-integer float32 values, so sums are exact in any
reduction order and outputs can be compared byte for byte with
``repro.collectives.reference`` whatever schedule an algorithm runs.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import (
    CentralManager,
    ClusterAllocator,
    CollectiveStrategy,
    MccsDeployment,
    MccsIssuer,
    RingSchedule,
    TrafficGenerator,
    custom_cluster,
    large_cluster,
    testbed_cluster,
)
from repro.collectives import Collective, input_bytes
from repro.collectives.reference import reference_outputs
from repro.errors import ReconfigurationError
from repro.service import (
    FleetLoadGenerator,
    GatewayPolicy,
    ServiceGateway,
    fleet_specs,
)
from repro.synth import synthesize_and_register
from repro.workloads import (
    DiurnalProfile,
    data_parallel_trace,
    resnet50,
)

from probe import HostProbe

clock = time.perf_counter

KIB = 1024
MIB = 1024 * 1024


@dataclass
class Round:
    """What one round did and how long the program under test took."""

    ops: int = 0
    failed: int = 0
    #: Wall seconds inside the program under test (issue + drive; the
    #: harness's own verification is excluded and reported separately).
    wall_s: float = 0.0
    drive_s: float = 0.0
    issue_s: float = 0.0
    verify_s: float = 0.0
    #: Wall ms per op, one entry per timing segment.
    seg_ms: List[float] = field(default_factory=list)
    #: (label, simulated issue time, simulated completion time) per op.
    sim: List[Tuple[str, float, float]] = field(default_factory=list)
    payload_bytes: int = 0
    mismatches: List[str] = field(default_factory=list)
    #: How much slower than the reference host this round's host was
    #: (median of the ``probe.HostProbe`` samples taken during it); the
    #: worker divides wall times by it.
    host: float = 1.0


class Recorder:
    """In-memory span list and connection census of the traced passes.

    Both are off (``None``) in timed rounds, where only the two clock
    reads per op that give ``op_ms_p50`` remain.
    """

    def __init__(self) -> None:
        self.spans: Optional[List[Tuple[str, str, float, float, str]]] = None
        self.census: Optional["Census"] = None
        #: The running profiler, paused while the harness verifies outputs
        #: so the ledger holds the program's time, not the oracle's.
        self.profile = None

    def span(self, name: str, op: str, start: float, end: float, parent: str = "") -> None:
        if self.spans is not None:
            self.spans.append((name, op, start, end, parent))


def peek(read: Callable[[], object]):
    """Result of a read that reaches below the documented surface (no
    public statistic carries the figure), or ``None`` once a refactor has
    moved what it looked at: the metric is then reported as absent and
    the run goes on."""
    try:
        return read()
    except (AttributeError, KeyError, TypeError, ValueError):
        return None


class Census:
    """Latest per-communicator state, sampled in the traced passes only,
    wherever the harness sees a communicator for what may be the last
    time (before a reconfigure or policy pass it issues, before destroy,
    at round end).

    ``connections`` is keyed by (communicator, strategy version): a
    version that is established and retired inside one ``run()`` is never
    visible from outside and is not counted.  ``connections`` and
    ``cache`` turn ``None`` when their source is gone (see ``peek``).
    """

    def __init__(self) -> None:
        self.connections: Optional[Dict[Tuple[int, int], int]] = {}
        self.cache: Optional[Dict[int, Dict[str, int]]] = {}
        self.inconsistent: Dict[int, int] = {}

    def sample(self, deployment: MccsDeployment) -> None:
        for comm in deployment.communicators():
            self.inconsistent[comm.comm_id] = comm.inconsistent_collectives
            if self.connections is not None:
                table = peek(lambda: comm.datapath.table_for(comm.strategy, comm.gpus)[0])
                if table is None:
                    self.connections = None
                else:
                    self.connections[(comm.comm_id, comm.strategy.version)] = len(table)
            if self.cache is not None:
                stats = peek(lambda: dict(comm.program_cache.stats()))
                if stats is None or not {"hits", "misses"} <= set(stats):
                    self.cache = None
                else:
                    self.cache[comm.comm_id] = stats


def _payload(rng: np.random.Generator, nbytes: int) -> np.ndarray:
    return rng.integers(-8, 8, nbytes // 4, dtype=np.int8).astype(np.float32)


def _dedupe(outputs: List[np.ndarray]) -> List[np.ndarray]:
    """Keep one array where every rank's expected output is the same."""
    first = outputs[0]
    if all(np.array_equal(first, other) for other in outputs[1:]):
        return [first] * len(outputs)
    return outputs


class Workload:
    """Common shape: ``setup()`` once, ``run_round()`` many, ``finish()``."""

    name = ""
    #: One host-speed sample every this many ``tick()``s (ops, passes,
    #: cycles or slices), so a round holds ten or more.
    tick_every = 1

    def __init__(self, seed: int, quick: bool, rec: Recorder) -> None:
        self.seed = seed
        self.quick = quick
        self.rec = rec
        #: Set by the worker after set-up; ``None`` while setting up.
        self.host: Optional[HostProbe] = None
        self.host_samples: List[float] = []
        self.ticks = 0
        self.rng = random.Random(seed)
        self.np_rng = np.random.default_rng(seed)
        self.dep: MccsDeployment
        self.gateway: Optional[ServiceGateway] = None
        self.op_seq = 0

    def scaled(self, count: int) -> int:
        """``--quick`` divides every count by ten."""
        return max(1, count // 10) if self.quick else count

    def tick(self) -> None:
        """Between two timing segments: sample the host's speed now and
        then (never inside a segment, so no op pays for a sample)."""
        self.ticks += 1
        if self.host is not None and self.ticks % self.tick_every == 0:
            self.host_samples.append(self.host.sample())

    def setup(self) -> None:
        raise NotImplementedError

    def run_round(self) -> Round:
        raise NotImplementedError

    def warm_up(self, body: Callable[[Round], None]) -> None:
        """Run ``body`` once, untimed; its outputs must already be right."""
        warm = Round()
        body(warm)
        if warm.failed:
            raise RuntimeError(f"warm-up failed: {warm.mismatches}")

    def finish(self) -> List[str]:
        """Drain, then run the end-of-run invariants; returns mismatches."""
        self.dep.run()
        problems = [f"journal: {line}" for line in self.dep.verify_journal()]
        for comm in self.dep.communicators():
            if comm.inconsistent_collectives:
                problems.append(
                    f"comm{comm.comm_id}: {comm.inconsistent_collectives} "
                    "inconsistent collective(s)"
                )
        return problems

    # -- closed loop: one op in flight ---------------------------------
    def closed_op(self, rnd: Round, label: str, issue: Callable[[], object]) -> float:
        """Issue one collective, drive the clock until it is done."""
        self.op_seq += 1
        op = f"{label}#{self.op_seq}"
        t0 = clock()
        handle = issue()
        t1 = clock()
        self.dep.run()
        t2 = clock()
        rnd.ops += 1
        rnd.wall_s += t2 - t0
        rnd.issue_s += t1 - t0
        rnd.drive_s += t2 - t1
        if handle.completed:
            rnd.sim.append((op, handle.end_time - handle.duration(), handle.end_time))
        else:
            rnd.failed += 1
        self.rec.span("issue", op, t0, t1)
        self.rec.span("drive", op, t1, t2)
        self.tick()
        return t2 - t0

    def check(
        self,
        rnd: Round,
        what: str,
        views: Sequence[np.ndarray],
        expected: Sequence[np.ndarray],
    ) -> None:
        """Byte-compare outputs with the oracle, then clear them so a
        later op cannot pass on stale data."""
        if self.rec.profile is not None:
            self.rec.profile.disable()
        t0 = clock()
        for rank, (got, want) in enumerate(zip(views, expected)):
            if not np.array_equal(got, want):
                rnd.mismatches.append(f"{what}: rank {rank} differs from reference")
                rnd.failed += 1
                break
        for view in views:
            view.fill(0)
        t1 = clock()
        rnd.verify_s += t1 - t0
        self.rec.span("verify", what, t0, t1)
        if self.rec.profile is not None:
            self.rec.profile.enable()


# ----------------------------------------------------------------------
# small_allreduce / large_allreduce
# ----------------------------------------------------------------------
class AllReduceLoop(Workload):
    """Testbed, 8 GPUs, ring / 2 channels, one AllReduce in flight."""

    nbytes = 0
    ops_per_round = 0

    def setup(self) -> None:
        cluster = testbed_cluster()
        self.dep = MccsDeployment(cluster, ecmp_seed=self.seed)
        self.client = self.dep.connect("bench")
        gpus = list(cluster.gpus)
        state = self.dep.create_communicator("bench", gpus, channels=2)
        self.comm = self.client.adopt_communicator(state.comm_id)
        self.sends = [self.client.alloc(gpu, self.nbytes) for gpu in gpus]
        self.recvs = [self.client.alloc(gpu, self.nbytes) for gpu in gpus]
        for buf in self.sends:
            buf.view(np.float32)[:] = _payload(self.np_rng, self.nbytes)
        self.views = [buf.view(np.float32) for buf in self.recvs]
        self.expected = _dedupe(
            reference_outputs(
                Collective.ALL_REDUCE, [b.view(np.float32) for b in self.sends]
            )
        )

        def warm(rnd: Round) -> None:
            self.closed_op(rnd, "warmup", self._issue)
            self.check(rnd, "warmup", self.views, self.expected)

        self.warm_up(warm)

    def _issue(self):
        return self.client.all_reduce(
            self.comm, self.nbytes, send=self.sends, recv=self.recvs
        )

    def run_round(self) -> Round:
        rnd = Round()
        for _ in range(self.scaled(self.ops_per_round)):
            rnd.seg_ms.append(self.closed_op(rnd, "all_reduce", self._issue) * 1e3)
        rnd.payload_bytes = rnd.ops * self.nbytes
        self.check(rnd, "all_reduce (last of round)", self.views, self.expected)
        return rnd


class SmallAllReduce(AllReduceLoop):
    name = "small_allreduce"
    nbytes = 64 * KIB
    ops_per_round = 150
    tick_every = 10


class LargeAllReduce(AllReduceLoop):
    name = "large_allreduce"
    nbytes = 16 * MIB
    ops_per_round = 4

    def scaled(self, count: int) -> int:
        return 1 if self.quick else count


# ----------------------------------------------------------------------
# mixed_kinds
# ----------------------------------------------------------------------
class MixedKinds(Workload):
    """Every kind x algorithm x world, plus the synthesized IR program."""

    name = "mixed_kinds"
    tick_every = 4
    out_bytes = 3 * MIB // 2  # divisible by every world x 4 B
    worlds = (4, 6, 8)
    algorithms = ("ring", "tree", "halving_doubling")
    kinds = (
        Collective.ALL_REDUCE,
        Collective.ALL_GATHER,
        Collective.REDUCE_SCATTER,
        Collective.BROADCAST,
        Collective.REDUCE,
    )

    def setup(self) -> None:
        cluster = testbed_cluster()
        self.dep = MccsDeployment(cluster, ecmp_seed=self.seed)
        self.client = self.dep.connect("mixed")
        out = self.out_bytes
        self.combos: List[Tuple[str, Callable[[], object], List, List]] = []
        for world in self.worlds:
            gpus = sorted(self.rng.sample(list(cluster.gpus), world), key=lambda g: g.global_id)
            # One send buffer per rank, big enough for the largest input
            # (reduce_scatter: out x world); smaller kinds use a prefix.
            sends = [self.client.alloc(gpu, out * world) for gpu in gpus]
            recvs = [self.client.alloc(gpu, out) for gpu in gpus]
            for buf in sends:
                buf.view(np.float32)[:] = _payload(self.np_rng, out * world)
            views = [buf.view(np.float32) for buf in recvs]
            expected = {}
            refs = {}
            for kind in self.kinds:
                nbytes = input_bytes(kind, out, world)
                refs[kind] = [buf.ref(0, nbytes) for buf in sends]
                expected[kind] = _dedupe(
                    reference_outputs(
                        kind, [b.view(np.float32, 0, nbytes // 4) for b in sends]
                    )
                )
            names = list(self.algorithms)
            if world == 8:
                names.append(synthesize_and_register(cluster, gpus)[0].name)
            for algorithm in names:
                order = list(range(world))
                self.rng.shuffle(order)
                state = self.dep.create_communicator(
                    "mixed",
                    gpus,
                    strategy=CollectiveStrategy(
                        ring=RingSchedule(tuple(order)), channels=2, algorithm=algorithm
                    ),
                )
                comm = self.client.adopt_communicator(state.comm_id)
                synthesized = algorithm not in self.algorithms
                for kind in (self.kinds[:1] if synthesized else self.kinds):
                    issue = partial(
                        getattr(self.client, kind.value),
                        comm, out, send=refs[kind], recv=recvs,
                    )
                    label = f"{kind.value}/{'synth' if synthesized else algorithm}/w{world}"
                    self.combos.append((label, issue, views, expected[kind]))
        self.rng.shuffle(self.combos)
        label, issue, views, expected = self.combos[0]

        def warm(rnd: Round) -> None:
            self.closed_op(rnd, "warmup", issue)
            self.check(rnd, "warmup " + label, views, expected)

        self.warm_up(warm)

    def run_round(self) -> Round:
        rnd = Round()
        combos = self.combos[:: 10 if self.quick else 1]
        for label, issue, views, expected in combos:
            self.closed_op(rnd, label, issue)
            self.check(rnd, label, views, expected)
        # One timing segment per pass over the mix: the per-op times are
        # multi-modal (a broadcast is not a synthesized AllReduce), and the
        # median of such a population jumps between modes from run to run.
        rnd.seg_ms.append(rnd.wall_s * 1e3 / rnd.ops)
        rnd.payload_bytes = rnd.ops * self.out_bytes
        return rnd


# ----------------------------------------------------------------------
# reconfig_churn
# ----------------------------------------------------------------------
class ReconfigChurn(Workload):
    """Tenant cycles: create, allocate, reconfigure mid-stream, tear down."""

    name = "reconfig_churn"
    nbytes = 64 * KIB
    worlds = (4, 6, 8)
    cycles_per_round = 6  # two of each world size, shuffled
    batches = 4
    ops_per_half = 4

    def setup(self) -> None:
        cluster = testbed_cluster()
        self.dep = MccsDeployment(cluster, ecmp_seed=self.seed)
        CentralManager(self.dep).manage_admissions()
        self.client = self.dep.connect("churn")
        self.payloads = [_payload(self.np_rng, self.nbytes) for _ in range(max(self.worlds))]
        self.expected = {
            world: _dedupe(
                reference_outputs(Collective.ALL_REDUCE, self.payloads[:world])
            )
            for world in self.worlds
        }
        self.warm_up(lambda rnd: self._cycle(rnd, self.worlds[-1]))

    def _cycle(self, rnd: Round, world: int) -> None:
        cluster = self.dep.cluster
        gpus = self.rng.sample(list(cluster.gpus), world)
        shuffles = []
        for _ in range(self.batches):
            order = list(range(world))
            self.rng.shuffle(order)
            shuffles.append(order)
        self.op_seq += 1
        cycle = f"cycle#{self.op_seq}"
        ops_before = rnd.ops
        handles = []

        t0 = clock()
        comm = self.client.create_communicator(gpus)
        sends = [self.client.alloc(gpu, self.nbytes) for gpu in gpus]
        recvs = [self.client.alloc(gpu, self.nbytes) for gpu in gpus]
        for buf, data in zip(sends, self.payloads):
            buf.view(np.float32)[:] = data
        t_issue = clock() - t0
        t_drive = 0.0
        for order in shuffles:
            t1 = clock()
            for _ in range(self.ops_per_half):
                handles.append(
                    self.client.all_reduce(comm, self.nbytes, send=sends, recv=recvs)
                )
            if self.rec.census is not None:
                self.rec.census.sample(self.dep)
            self.dep.reconfigure(comm.comm_id, ring=order)
            for _ in range(self.ops_per_half):
                handles.append(
                    self.client.all_reduce(comm, self.nbytes, send=sends, recv=recvs)
                )
            t2 = clock()
            self.dep.run()
            t3 = clock()
            t_issue += t2 - t1
            t_drive += t3 - t2
            self.rec.span("issue", cycle, t1, t2)
            self.rec.span("drive", cycle, t2, t3)
        t4 = clock()

        for k, handle in enumerate(handles):
            rnd.ops += 1
            if handle.completed:
                rnd.sim.append(
                    (f"{cycle}.{k}", handle.end_time - handle.duration(), handle.end_time)
                )
            else:
                rnd.failed += 1
        self.check(
            rnd, cycle, [b.view(np.float32) for b in recvs], self.expected[world]
        )
        state = self.dep.communicator(comm.comm_id)
        if state.inconsistent_collectives:
            rnd.mismatches.append(
                f"{cycle}: {state.inconsistent_collectives} inconsistent collective(s)"
            )
            rnd.failed += 1
        if self.rec.census is not None:
            self.rec.census.sample(self.dep)

        t5 = clock()
        for buf in sends + recvs:
            self.client.free(buf)
        self.client.destroy_communicator(comm)
        t6 = clock()
        t_issue += t6 - t5
        wall = (t4 - t0) + (t6 - t5)
        rnd.wall_s += wall
        rnd.issue_s += t_issue
        rnd.drive_s += t_drive
        rnd.seg_ms.append(wall * 1e3 / (rnd.ops - ops_before))
        self.tick()

    def run_round(self) -> Round:
        rnd = Round()
        worlds = list(self.worlds) * (self.cycles_per_round // len(self.worlds))
        if self.quick:
            worlds = worlds[:1]
        self.rng.shuffle(worlds)
        for world in worlds:
            self._cycle(rnd, world)
        rnd.payload_bytes = rnd.ops * self.nbytes
        problems = self.dep.verify_journal()
        rnd.mismatches += [f"journal: {line}" for line in problems]
        rnd.failed += len(problems)
        return rnd


# ----------------------------------------------------------------------
# open loop: arrivals follow the simulated clock
# ----------------------------------------------------------------------
class OpenLoop(Workload):
    """Tenants issue from inside the event loop, on the simulated clock.

    A round advances the clock in fixed slices of simulated time until
    ``round_over()``; the wall time of a slice over the ops that completed
    in it is one timing segment (empty slices are skipped).  Ops are
    counted when they complete, so every counted op is known good;
    ``finish()`` drains and reports whatever never completed.
    """

    slice_s = 0.0

    def __init__(self, seed: int, quick: bool, rec: Recorder) -> None:
        super().__init__(seed, quick, rec)
        self.issued = 0
        self.done: List[Tuple[str, float, float]] = []
        self.failed = 0
        self.issue_s = 0.0

    def timed_issue(self, label: str, call: Callable[[], object]):
        """Clock one call into the program from inside the event loop."""
        t0 = clock()
        result = call()
        t1 = clock()
        self.issued += 1
        self.issue_s += t1 - t0
        self.rec.span("issue", label, t0, t1, "drive")
        return result

    def begin_round(self) -> None:
        """Untimed: arm whatever arrives during the round."""

    def round_over(self, slices_done: int) -> bool:
        raise NotImplementedError

    def run_round(self) -> Round:
        rnd = Round()
        sim = self.dep.sim
        first = len(self.done)
        self.begin_round()
        slices_done = 0
        while not self.round_over(slices_done):
            seen, failed, issue_before = len(self.done), self.failed, self.issue_s
            t0 = clock()
            self.dep.run(until=sim.now + self.slice_s)
            t1 = clock()
            slices_done += 1
            completed = len(self.done) - seen
            issue = self.issue_s - issue_before
            rnd.wall_s += t1 - t0
            rnd.issue_s += issue
            rnd.drive_s += (t1 - t0) - issue
            rnd.failed += self.failed - failed
            self.rec.span("drive", f"slice@{sim.now:.6f}", t0, t1)
            if completed:
                rnd.seg_ms.append((t1 - t0) * 1e3 / completed)
            self.tick()
        rnd.sim = self.done[first:]
        rnd.ops = len(rnd.sim) + rnd.failed
        return rnd


class _JobClient:
    """Stands between ``MccsIssuer`` and the shim so the harness sees
    each collective's issue cost and simulated completion."""

    def __init__(self, workload: "MultiTenant", client, job_id: str) -> None:
        self.workload = workload
        self.client = client
        self.job_id = job_id
        self.count = 0

    def __getattr__(self, kind: str):
        """``all_reduce`` / ``all_gather`` / ``reduce_scatter`` of the shim."""
        method = getattr(self.client, kind)
        wl = self.workload

        def call(comm, out_bytes, **kw):
            self.count += 1
            label = f"{self.job_id}.{self.count}"
            tenant_done = kw.pop("on_complete")

            def done(instance, now: float) -> None:
                wl.done.append((label, now - instance.duration(), now))
                tenant_done(instance, now)

            return wl.timed_issue(
                label, lambda: method(comm, out_bytes, on_complete=done, **kw)
            )

        return call


class MultiTenant(OpenLoop):
    """The section 6.5 shape driven through the service, one wave of jobs
    per round; every round replays the same wave on the (by then empty)
    768-GPU cluster, so rounds do equal work.

    What a wave costs depends on which collectives happen to share a
    link while they overlap - a heavy-tailed accident, not a property of
    the program: with arrivals, sizes and placements drawn from the seed,
    the wall time per collective varied 4x between seeds (16-71 ms) and
    rate recomputations per collective 6x (9-57), with 10 jobs a wave and
    with 50 alike.  No bound a regression can be held to survives that.
    So the wave itself (arrival gaps, job sizes, placements) is drawn
    from the constant ``wave_seed``, and ``--seed`` picks the ECMP seed
    and a permutation of the GPUs inside every host - a relabelling that
    moves every rank, NIC and ring position but changes the Python work
    per collective by under 1 % (permuting hosts or racks as well did
    not: tie-breaks in the policies made it 13-25 recomputations per
    collective).  A claim on this workload is therefore a claim about
    this wave on any labelling; README.md says what that leaves open.
    """

    name = "multi_tenant"
    tick_every = 5
    slice_s = 0.02
    jobs_per_round = 10
    mean_gap_s = 0.2
    segments = 5
    iterations_per_segment = 40
    channels = 8
    wave_seed = 2024
    #: Simulated back-off when a policy pass meets a reconfiguration that
    #: is still waiting at its barrier (ten control-ring round trips).
    policy_retry_s = 1e-3

    def setup(self) -> None:
        cluster = large_cluster()
        self.dep = MccsDeployment(cluster, ecmp_seed=self.seed)
        self.manager = CentralManager(self.dep)
        base = resnet50()
        # fig11's fluid-equivalent replay: each AllReduce stands for 40
        # iterations of ResNet-50 gradients, with no exposed compute.
        self.profile = replace(
            base,
            bucket_bytes=0,
            compute_per_iteration=0.0,
            input_bytes_per_iteration=0,
            param_bytes=self.iterations_per_segment * base.param_bytes,
        )
        self.wave = self._wave()
        self.relabel = self._relabelling()
        self.live = 0
        self.waves = 0
        self.policy_pending = False
        self.run_round()  # untimed warm-up wave

    def _wave(self) -> List[Tuple[float, List[int]]]:
        """(arrival offset, GPU ids) per job: Poisson gaps (the exponential
        distribution's own quantiles, shuffled), half 16- and half 32-GPU
        jobs, random placement; all jobs fit the cluster at once."""
        rng = random.Random(self.wave_seed)
        n = self.jobs_per_round
        gaps = [-self.mean_gap_s * math.log(1.0 - (i + 0.5) / n) for i in range(n)]
        sizes = [16, 32] * (n // 2)
        rng.shuffle(gaps)
        rng.shuffle(sizes)
        allocator = ClusterAllocator(self.dep.cluster, seed=self.wave_seed)
        now, wave = 0.0, []
        for k, (gap, size) in enumerate(zip(gaps, sizes)):
            now += gap
            gpus = allocator.place_random(f"job{k}", size)
            wave.append((now, [gpu.global_id for gpu in gpus]))
        return wave

    def _relabelling(self) -> Dict[int, int]:
        """Seed-chosen permutation of the GPUs inside every host, as
        old -> new GPU id."""
        mapping: Dict[int, int] = {}
        for host in self.dep.cluster.hosts:
            ids = [gpu.global_id for gpu in host.gpus]
            shuffled = list(ids)
            self.rng.shuffle(shuffled)
            mapping.update(zip(ids, shuffled))
        return mapping

    def begin_round(self) -> None:
        sim = self.dep.sim
        self.waves += 1
        wave = self.wave[: self.scaled(len(self.wave))]
        self.live = len(wave)
        for k, (offset, gpu_ids) in enumerate(wave):
            sim.schedule(
                sim.now + offset,
                lambda k=k, ids=gpu_ids: self._launch(f"w{self.waves}.job{k}", ids),
            )

    def round_over(self, slices_done: int) -> bool:
        return self.live == 0 and not self.policy_pending

    def _launch(self, job_id: str, gpu_ids: List[int]) -> None:
        cluster = self.dep.cluster
        gpus = [cluster.gpu(self.relabel[i]) for i in gpu_ids]
        state = self.manager.admit(job_id, gpus, channels=self.channels)
        client = self.dep.connect(job_id)
        comm = client.adopt_communicator(state.comm_id)
        generator = TrafficGenerator(
            cluster.sim,
            MccsIssuer(_JobClient(self, client, job_id), comm),
            data_parallel_trace(self.profile, self.segments),
            client.create_stream(gpus[0]),
            name=job_id,
        )
        self._reassign()  # the provider reschedules on every join ...

        def finished(gen: TrafficGenerator, now: float) -> None:
            client.destroy_communicator(comm)
            self._reassign()  # ... and on every exit
            self.live -= 1

        generator.start(on_finish=finished)

    def _reassign(self) -> None:
        """One FFA pass over every live communicator.  A pass that meets a
        communicator still at its reconfiguration barrier backs off and
        runs again (once, however many joins and exits asked meanwhile)."""
        if self.rec.census is not None:
            self.rec.census.sample(self.dep)
        try:
            self.manager.apply_flow_policy("ffa")
            self.policy_pending = False
        except ReconfigurationError:
            if not self.policy_pending:
                self.policy_pending = True
                self.dep.sim.call_in(self.policy_retry_s, self._reassign)

    def finish(self) -> List[str]:
        problems = super().finish()
        if self.issued != len(self.done):
            problems.append(
                f"{self.issued - len(self.done)} of {self.issued} collectives "
                "never completed"
            )
        if self.dep.communicators():
            problems.append(f"{len(self.dep.communicators())} communicator(s) leaked")
        return problems


class _TenantClient:
    """Stands between ``FleetLoadGenerator`` and ``GatewayClient``."""

    def __init__(self, workload: "GatewayFleet", client) -> None:
        self.workload = workload
        self.client = client

    def collective(self, comm_id, nbytes, **kw):
        wl = self.workload
        tenant_done = kw.pop("on_response")
        submitted = wl.dep.sim.now
        label = f"req{wl.issued + 1}"

        def done(response) -> None:
            wl.responded(label, response, submitted)
            tenant_done(response)

        return wl.timed_issue(
            label,
            lambda: self.client.collective(comm_id, nbytes, on_response=done, **kw),
        )


class GatewayFleet(OpenLoop):
    """96 tenants through auth -> bucket -> queue -> dispatch -> settle."""

    name = "gateway_fleet"
    tick_every = 5
    slice_s = 0.01
    slices = 50  # half a simulated second, one diurnal cycle, per round
    tenants = 96
    base_rate = 20.0

    def setup(self) -> None:
        cluster = custom_cluster(
            num_spines=2,
            num_leaves=2,
            hosts_per_leaf=12,
            gpus_per_host=8,
            nics_per_host=2,
            name="fleet24",
        )
        self.dep = MccsDeployment(cluster, ecmp_seed=self.seed)
        self.gateway = ServiceGateway(
            self.dep,
            GatewayPolicy(queue_capacity=4096, max_inflight=64, default_deadline=30.0),
        )
        specs = fleet_specs(self.tenants, seed=self.seed, base_rate=self.base_rate)
        period = self.slice_s * self.slices
        self.gen = FleetLoadGenerator(
            self.gateway,
            specs,
            seed=self.seed,
            profile=DiurnalProfile(period=period, amplitude=0.5),
        )
        pairs = [(2 * i, 2 * i + 1) for i in range(self.tenants)]
        self.rng.shuffle(pairs)
        self.gen.provision({s.tenant_id: pairs[i] for i, s in enumerate(specs)})
        # Quotas wide enough that nothing is throttled, queued out or shed:
        # any 429/503/504 from here on is a failed op.  A session binds its
        # token bucket when it is created, so the gateway is restarted (its
        # registry replays from the journal) to put the new rates in force.
        registry = self.gateway.registry
        for spec in specs:
            registry.set_quota(
                spec.tenant_id,
                registry.quota_with(
                    spec.tenant_id, rate=1e6, burst=1e6, max_queued=1024, max_inflight=8
                ),
            )
        self.gateway.crash()
        self.gateway.restart()
        for app in self.gen.apps():
            app.client = _TenantClient(self, app.client)
        self.seen = set()
        self.duplicates = 0
        self.gen.start(horizon=float("inf"))
        self.dep.run(until=5 * self.slice_s)  # untimed warm-up

    def round_over(self, slices_done: int) -> bool:
        return slices_done >= self.scaled(self.slices)

    def responded(self, label: str, response, submitted: float) -> None:
        if response.request_id in self.seen:
            self.duplicates += 1
        self.seen.add(response.request_id)
        if response.ok:
            self.done.append((label, submitted, self.dep.sim.now))
        else:
            self.failed += 1

    def finish(self) -> List[str]:
        self.gen.horizon = self.dep.sim.now  # stop arrivals
        problems = super().finish()
        answered = len(self.done) + self.failed
        if answered != self.issued or self.duplicates:
            problems.append(
                f"{self.issued} requests issued, {answered} answered, "
                f"{self.duplicates} answered twice"
            )
        transport = self.gen.transport
        if transport.submitted != transport.delivered:
            problems.append(
                f"transport submitted {transport.submitted}, "
                f"delivered {transport.delivered}"
            )
        return problems


REGISTRY = {
    cls.name: cls
    for cls in (
        SmallAllReduce,
        LargeAllReduce,
        MixedKinds,
        MultiTenant,
        GatewayFleet,
        ReconfigChurn,
    )
}
