"""``FlowSimulator`` against a brute-force reference event loop.

The reference is the simplest thing that can be right: before every event
it recomputes all rates with :func:`progressive_filling` (the rate
oracle), scans every flow for the earliest completion, and debits every
flow's remaining bytes.  No persistent solver, no heap, no lazy clock —
the structure the engine's deleted legacy core had, kept here as a test
oracle.  One hypothesis property replays random add / cancel / gate /
``set_link_capacity`` / ``fail_link`` scripts through both and compares
which flows complete or fail, in what order, and when.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.netsim.engine import FlowSimulator
from repro.netsim.errors import LinkDownError
from repro.netsim.fairness import progressive_filling
from repro.netsim.flows import Flow
from repro.netsim.topology import Topology

_EPS = 1e-12  # the engine's simultaneity window

LINKS = {"a->m1": 8.0, "m1->b": 6.0, "a->m2": 4.0, "m2->b": 8.0, "a->b": 5.0}
LINK_IDS = list(LINKS)
PATHS = [
    ("a->m1", "m1->b"),
    ("a->m2", "m2->b"),
    ("a->b",),
    ("a->m1",),
    ("m2->b",),
]


def reference_run(script):
    """Brute-force replay of ``script`` (``[(time, op), ...]``, time-sorted).

    Returns the outcome log ``[(kind, handle index, time), ...]`` with
    kind ``"done"`` or ``"fail"``; rejected adds log ``"rejected"``.
    """
    caps, down, now = dict(LINKS), set(), 0.0
    flows, handles, log = [], [], []
    events = list(script)

    def leave(flow, kind):
        flows.remove(flow)
        log.append((kind, handles.index(flow), now))

    def apply(op):
        kind, arg, value = op
        if kind == "add":
            if down.intersection(PATHS[arg]):
                handles.append(None)
                log.append(("rejected", len(handles) - 1, now))
            else:
                flow = Flow(value[0], PATHS[arg], f"ref{len(handles)}", weight=value[1])
                flows.append(flow)
                handles.append(flow)
        elif kind == "cap":
            caps[LINK_IDS[arg]] = value
        elif kind == "fail":
            down.add(LINK_IDS[arg])
            for flow in [f for f in flows if LINK_IDS[arg] in f.links]:
                leave(flow, "fail")
        elif handles and handles[arg % len(handles)] in flows:
            flow = handles[arg % len(handles)]
            if kind == "cancel":
                flows.remove(flow)
            else:  # gate: toggle
                flow.gated = not flow.gated

    while True:
        rates = progressive_filling(flows, caps)
        etas = {
            f: now + f.remaining / rates[f.flow_id]
            for f in flows
            if rates[f.flow_id] > 0
        }
        t_done = min(etas.values(), default=math.inf)
        t_event = events[0][0] if events else math.inf
        t = min(t_done, t_event)
        if math.isinf(t):
            return log
        for flow in flows:
            flow.remaining = max(
                flow.remaining - rates[flow.flow_id] * (t - now), 0.0
            )
        now = t
        if t_done <= t_event + _EPS:
            for flow in [f for f, eta in etas.items() if eta <= t_done + _EPS]:
                leave(flow, "done")
        while events and events[0][0] <= now + _EPS:
            apply(events.pop(0)[1])


def engine_run(script):
    """The same script through :class:`FlowSimulator`; same log format."""
    topo = Topology()
    for node in ("a", "m1", "m2", "b"):
        topo.add_node(node)
    for link, cap in LINKS.items():
        topo.add_link(*link.split("->"), cap)
    sim = FlowSimulator(topo)
    handles, log = [], []

    def apply(op):
        kind, arg, value = op
        if kind == "add":
            index = len(handles)
            try:
                handles.append(
                    sim.add_flow(
                        value[0],
                        PATHS[arg],
                        weight=value[1],
                        on_complete=lambda f, t: log.append(("done", index, t)),
                        on_fail=lambda f, t, e: log.append(("fail", index, t)),
                    )
                )
            except LinkDownError:
                handles.append(None)
                log.append(("rejected", index, sim.now))
        elif kind == "cap":
            sim.set_link_capacity(LINK_IDS[arg], value)
        elif kind == "fail":
            sim.fail_link(LINK_IDS[arg])
        elif handles and handles[arg % len(handles)] is not None:
            flow = handles[arg % len(handles)]
            if not sim.has_flow(flow):
                return
            if kind == "cancel":
                sim.cancel_flow(flow)
            else:
                sim.gate_flow(flow, not flow.gated)

    for when, op in script:
        sim.schedule(when, lambda op=op: apply(op))
    sim.run()
    return log


_op = st.one_of(
    st.tuples(
        st.just("add"),
        st.integers(0, len(PATHS) - 1),
        st.tuples(st.floats(0.5, 40.0), st.sampled_from([0.5, 1.0, 3.0])),
    ),
    st.tuples(st.just("cancel"), st.integers(0, 7), st.none()),
    st.tuples(st.just("gate"), st.integers(0, 7), st.none()),
    st.tuples(st.just("cap"), st.integers(0, len(LINKS) - 1), st.floats(0.5, 20.0)),
    st.tuples(st.just("fail"), st.integers(0, len(LINKS) - 1), st.none()),
)


@given(
    st.lists(st.tuples(st.floats(0.0, 6.0), _op), min_size=1, max_size=30).map(
        lambda script: sorted(script, key=lambda entry: entry[0])
    )
)
@settings(max_examples=150, deadline=None)
def test_engine_matches_brute_force_reference(script):
    want = reference_run(script)
    got = engine_run(script)
    # Same flows complete / fail / are rejected, at the same times.
    assert sorted(e[:2] for e in got) == sorted(e[:2] for e in want)
    want_time = {e[:2]: e[2] for e in want}
    for kind, index, when in got:
        assert when == pytest.approx(want_time[kind, index], rel=1e-6, abs=1e-9)
    # Same order, up to flows the reference finishes at one instant.
    times = [want_time[e[:2]] for e in got]
    for earlier, later in zip(times, times[1:]):
        assert earlier <= later * (1 + 1e-6) + 1e-9
