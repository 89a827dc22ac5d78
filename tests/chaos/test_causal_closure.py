"""Causal-trace closure under chaos: one closed tree per collective.

The causal layer's contract (ISSUE observability tentpole): every
collective that reaches the service opens exactly one causal trace, and
that trace is closed exactly once — completed, aborted, or failed — no
matter which fault plan hits the deployment.  No orphan spans (flow
records still ``active`` inside a closed tree), no leaked contexts
(traces still open after the simulation quiesces), across retries,
barrier reroutes, service crashes and journal-replay restarts.

Reuses the chaos harness: the same randomized fault matrix that proves
the recovery contract proves trace closure.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.telemetry.causal import TRACE_ABORTED, TRACE_COMPLETED, TRACE_FAILED

from .test_chaos_recovery import SEEDS, run_chaos

pytestmark = pytest.mark.chaos

_TERMINAL = {TRACE_COMPLETED, TRACE_ABORTED, TRACE_FAILED}


def assert_traces_closed(result: dict) -> None:
    """One closed causal tree per issued collective, nothing dangling."""
    hub = result["deployment"].telemetry()
    tracer = hub.causal
    assert tracer is not None
    plan_text = "; ".join(result["plan"].describe()) or "(no faults)"

    # No leaked contexts: the simulation quiesced, so every trace ever
    # started must have reached a terminal state, exactly once.
    assert tracer.live_traces() == [], (
        f"open traces left after quiescence under plan [{plan_text}]: "
        f"{[t.trace_id for t in tracer.live_traces()]}"
    )
    assert tracer.traces_closed == tracer.traces_started

    closed = {t.trace_id: t for t in tracer.closed_traces()}
    assert len(closed) == tracer.traces_closed, "duplicate trace close"

    # Exactly one closed tree per collective that reached the service —
    # retries open new *attempts* under the same trace, never new traces.
    ops = [op for op in result["victim_ops"] if op.instance is not None]
    ops.append(result["healthy_op"])
    for op in ops:
        trace = op.instance.trace
        assert trace is not None, f"collective seq={op.seq} issued untraced"
        assert closed.get(trace.trace_id) is trace, (
            f"collective seq={op.seq} has no closed trace "
            f"under plan [{plan_text}]"
        )
        assert trace.status in _TERMINAL
        assert trace.end_time is not None
        # Terminal status agrees with the instance's fate.
        if op.instance.aborted:
            assert trace.status in (TRACE_ABORTED, TRACE_FAILED)
        elif op.completed:
            assert trace.status == TRACE_COMPLETED
        assert len(trace.attempts) == op.instance.attempts

    # No orphan spans: every flow record inside a closed tree is
    # terminal and its segment list is fully closed.
    for trace in closed.values():
        for rec in trace.all_flows():
            assert rec.status != "active", (
                f"orphan flow {rec.flow_id} in closed trace "
                f"{trace.trace_id} under plan [{plan_text}]"
            )
            for seg in rec.segments:
                assert seg.end is not None

    # The rendered timeline is closed too: after quiescence no collective
    # or phase span is left unfinished — a retried collective's failed
    # attempts included.
    records = hub.to_json()["spans"]["records"]
    unfinished = [
        (r["name"], r["attrs"].get("comm"))
        for r in records
        if r["category"] in ("collective", "phase") and r["end"] is None
    ]
    assert unfinished == [], f"open spans under plan [{plan_text}]: {unfinished}"
    assert sum(r["category"] == "collective" for r in records) == len(closed)

    # The metrics agree with the tracer's own books.
    total = hub.metrics.get("mccs_traces_total")
    open_gauge = hub.metrics.get("mccs_traces_open")
    if total is not None:
        assert total.total() == tracer.traces_started
    if open_gauge is not None:
        assert open_gauge.value() == 0


@pytest.mark.parametrize("seed", SEEDS)
def test_trace_closure_seed_matrix(seed):
    assert_traces_closed(run_chaos(seed))


@given(seed=st.integers(min_value=0, max_value=2**16))
@settings(
    max_examples=15,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_trace_closure_hypothesis(seed):
    assert_traces_closed(run_chaos(seed, num_faults=3))
