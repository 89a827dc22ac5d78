"""The causal tracer's rate history equals an independent oracle's.

Random launch batches of several tenants (one of them untraced, one with
no ``job_id``) share the links of a small fabric, and are gated and
ungated, cancelled, failed and completed.  An oracle observer kept here
records every traced flow's constant-rate segments itself: it polls the
flows' installed rates and the solver's bottleneck attribution at each
rate hand-off, and reads co-tenants from its own per-link tenant
occupancy (how many active, ungated flows each tenant has on each link,
updated on every launch, departure and gate).  Every closed trace's
rendered segments ``(start, end, rate, bottleneck, co_tenants)`` must
equal the oracle's, flow by flow.
"""

from typing import Dict, List, Optional, Sequence, Tuple

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.netsim.engine import FlowSimulator, SimObserver
from repro.netsim.errors import LinkDownError
from repro.netsim.topology import Topology
from repro.telemetry.causal import CausalTracer

#: Tenants; ``None`` is a flow with no ``job_id`` (the tracer names it
#: "none") and "bg" launches untraced traffic.
TENANTS = ("A", "B", "C", None, "bg")

#: (src, dst, capacity in bytes/s): two edges into a switch, two out.
LINKS = (
    ("a", "s", 4e6),
    ("b", "s", 3e6),
    ("s", "c", 2e6),
    ("s", "d", 5e6),
)
PATHS = (
    ("a->s", "s->c"),
    ("a->s", "s->d"),
    ("b->s", "s->c"),
    ("b->s", "s->d"),
    ("s->c",),
    ("a->s",),
)


class OccupancyOracle(SimObserver):
    """Segments of every traced flow, from per-link tenant occupancy."""

    def __init__(self, sim: FlowSimulator) -> None:
        self.sim = sim
        #: link -> tenant -> active ungated flow count.
        self.link_jobs: Dict[str, Dict[str, int]] = {}
        #: flow id -> [start, end, rate, bottleneck, co_tenants] rows.
        self.segments: Dict[str, List[list]] = {}
        self.live: Dict[str, object] = {}
        sim.add_observer(self)

    def occupy(self, job_id: Optional[str], routes: Dict[Tuple[str, ...], int]) -> None:
        job = job_id or "none"
        for links, n in routes.items():
            for link in links:
                per_job = self.link_jobs.setdefault(link, {})
                per_job[job] = per_job.get(job, 0) + n

    def unoccupy(self, counts: Dict[Tuple[Optional[str], Tuple[str, ...]], int]) -> None:
        for (job_id, links), n in counts.items():
            job = job_id or "none"
            for link in links:
                per_job = self.link_jobs.get(link)
                if per_job is not None:
                    count = per_job.get(job, 0) - n
                    if count > 0:
                        per_job[job] = count
                    else:
                        per_job.pop(job, None)
                        if not per_job:
                            del self.link_jobs[link]

    def on_flows_added(self, flows, now: float) -> None:
        first = flows[0]
        routes: Dict[Tuple[str, ...], int] = {}
        for flow in flows:
            routes[flow.links] = routes.get(flow.links, 0) + 1
        if not first.gated:
            self.occupy(first.job_id, routes)
        trace = first.tags.get("trace")
        if trace is None or trace.closed:
            return
        for flow in flows:
            self.segments[flow.flow_id] = []
            self.live[flow.flow_id] = flow

    def on_rates_changed(self, *handoff) -> None:
        """Any hand-off: only its instant is read; each traced flow whose
        installed rate differs from its open segment's opens a new one."""
        now = handoff[-1]
        solver = self.sim._solver
        caps = self.sim._capacities
        for flow_id, flow in self.live.items():
            segments = self.segments[flow_id]
            rate = flow.rate
            if (segments[-1][2] if segments else 0.0) == rate:
                continue
            if segments:
                segments[-1][1] = now
            b = int(solver._bneck[flow._slot])
            if b >= 0:
                bottleneck = solver._link_ids[b]
            else:
                bottleneck = min(flow.links, key=caps.__getitem__)
            per_job = self.link_jobs.get(bottleneck)
            job = flow.job_id or "none"
            co: Tuple[str, ...] = ()
            if per_job:
                co = tuple(sorted(t for t, n in per_job.items() if n > 0 and t != job))
            segments.append([now, None, rate, bottleneck, co])

    def left(self, flows: Sequence, now: float) -> None:
        counts: Dict[Tuple[Optional[str], Tuple[str, ...]], int] = {}
        for flow in flows:
            if not flow.gated:
                key = (flow.job_id, flow.links)
                counts[key] = counts.get(key, 0) + 1
            if self.live.pop(flow.flow_id, None) is not None:
                segments = self.segments[flow.flow_id]
                if segments and segments[-1][1] is None:
                    segments[-1][1] = now
        self.unoccupy(counts)

    def on_flow_gated(self, flow, gated: bool, now: float) -> None:
        if gated:
            self.unoccupy({(flow.job_id, flow.links): 1})
        else:
            self.occupy(flow.job_id, {flow.links: 1})

    def on_flows_completed(self, flows, now: float) -> None:
        self.left(flows, now)

    def on_flow_cancelled(self, flow, now: float) -> None:
        self.left((flow,), now)

    def on_flow_failed(self, flow, now: float) -> None:
        self.left((flow,), now)


TRANSFER = st.tuples(
    st.floats(min_value=1e4, max_value=2e6),
    st.integers(min_value=0, max_value=len(PATHS) - 1),
)
STEP = st.one_of(
    st.tuples(
        st.just("launch"),
        st.sampled_from(TENANTS),
        st.booleans(),  # gated at injection
        st.lists(TRANSFER, min_size=1, max_size=5),
    ),
    st.tuples(st.just("run"), st.floats(min_value=0.0, max_value=0.6)),
    st.tuples(st.just("gate"), st.integers(min_value=0, max_value=63)),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=63)),
    st.tuples(st.just("fail"), st.integers(min_value=0, max_value=63)),
)


@given(script=st.lists(STEP, min_size=1, max_size=24))
@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_segments_equal_the_occupancy_oracle(script):
    topo = Topology()
    for node in "absdc":
        topo.add_node(node)
    for src, dst, capacity in LINKS:
        topo.add_link(src, dst, capacity)
    sim = FlowSimulator(topo)
    tracer = CausalTracer(sim)
    oracle = OccupancyOracle(sim)
    flows: List = []  # every flow launched, in order
    remaining: Dict[str, List] = {}  # trace id -> [trace, flows still in]

    def gone(flow) -> None:
        """``flow`` left the network: close its trace with its last flow."""
        trace = flow.tags.get("trace")
        entry = None if trace is None else remaining.get(trace.trace_id)
        if entry is None:
            return
        entry[1] -= 1
        if entry[1] == 0:
            tracer.close(entry[0], sim.now, "completed")

    def pick(i: int):
        live = [f for f in flows if f.end_time is None and not f.failed
                and f.flow_id in sim._active]
        return live[i % len(live)] if live else None

    for seq, step in enumerate(script):
        kind = step[0]
        if kind == "launch":
            _, tenant, gated, transfers = step
            tags = None
            if tenant != "bg":
                trace = tracer.open(sim.now, tenant=str(tenant), comm_id="c",
                                    seq=seq, kind="all_reduce", nbytes=1)
                remaining[trace.trace_id] = [trace, len(transfers)]
                tags = {"trace": trace}
            batch = sim.add_flows(
                [(size, PATHS[p], channel, channel % 2)
                 for channel, (size, p) in enumerate(transfers)],
                job_id=tenant, gated=gated, tags=tags,
                on_complete=lambda f, now: gone(f),
                on_fail=lambda f, now, err: gone(f),
            )
            flows.extend(batch)
        elif kind == "run":
            sim.run(until=sim.now + step[1])
        else:
            flow = pick(step[1])
            if flow is None:
                continue
            if kind == "gate":
                sim.gate_flow(flow, not flow.gated)
            elif kind == "cancel":
                sim.cancel_flow(flow)
                gone(flow)
            else:
                sim.fail_flow(flow, LinkDownError("injected"))
    for flow in flows:
        if flow.gated and flow.flow_id in sim._active:
            sim.gate_flow(flow, False)
    sim.run()

    closed = tracer.closed_traces()
    assert len(closed) == len(remaining)
    seen = set()
    for trace in closed:
        for record in trace.all_flows():
            seen.add(record.flow_id)
            rendered = [
                [s.start, s.end, s.rate, s.bottleneck, tuple(s.co_tenants)]
                for s in record.segments
            ]
            assert rendered == oracle.segments[record.flow_id], record.flow_id
    assert seen == set(oracle.segments)
