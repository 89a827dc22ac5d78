"""Workload synthesis tests: models, traces, arrivals, production data."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.collectives.types import Collective
from repro.workloads.arrivals import poisson_arrivals
from repro.workloads.models import (
    gpt_2_7b,
    gradient_buckets,
    resnet50,
    vgg19,
)
from repro.workloads.production import (
    empirical_cross_rack_curve,
    product_group_breakdowns,
    simulated_cross_rack_curve,
)
from repro.workloads.traces import (
    data_parallel_trace,
    gpt_tp_trace,
    tensor_parallel_trace,
    vgg19_dp_trace,
)


def collective_bytes(trace):
    return sum(s.out_bytes for s in trace.steps if s.collective is not None)


def memcpy_bytes(trace):
    return sum(s.memcpy_bytes for s in trace.steps)


# -- models -----------------------------------------------------------------
def test_vgg19_gradient_volume():
    profile = vgg19()
    assert profile.param_bytes == pytest.approx(143_667_240 * 4)
    buckets = gradient_buckets(profile)
    assert sum(buckets) == profile.param_bytes
    assert max(buckets) <= profile.bucket_bytes


def test_resnet50_is_100mb():
    assert resnet50().param_bytes == 100 * 1024 * 1024


def test_gpt_profile_shape():
    profile = gpt_2_7b()
    assert profile.parallelism == "tensor"
    assert profile.tp_syncs_per_iteration == 4 * 32
    assert profile.tp_allreduce_bytes == 2048 * 2560 * 2


def test_gradient_buckets_require_dp():
    with pytest.raises(ValueError):
        gradient_buckets(gpt_2_7b())


# -- traces -----------------------------------------------------------------
def test_dp_trace_structure():
    trace = vgg19_dp_trace(3)
    assert trace.iterations == 3
    buckets = len(gradient_buckets(vgg19()))
    assert trace.steps_per_iteration == 1 + buckets
    assert len(trace.steps) == 3 * (1 + buckets)
    assert sum(s.collective is not None for s in trace.steps) == 3 * buckets


def test_dp_trace_moves_all_gradients():
    trace = vgg19_dp_trace(2)
    assert collective_bytes(trace) == 2 * vgg19().param_bytes
    assert all(
        s.collective in (None, Collective.ALL_REDUCE) for s in trace.steps
    )


def test_dp_trace_compute_budget():
    trace = vgg19_dp_trace(2)
    assert sum(s.compute_seconds for s in trace.steps) == pytest.approx(
        2 * vgg19().compute_per_iteration
    )


def test_tp_trace_structure():
    trace = gpt_tp_trace(2)
    profile = gpt_2_7b()
    assert len(trace.steps) == 2 * profile.tp_syncs_per_iteration
    assert all(s.collective is Collective.ALL_REDUCE for s in trace.steps)
    assert collective_bytes(trace) == (
        2 * profile.tp_syncs_per_iteration * profile.tp_allreduce_bytes
    )


def test_tp_trace_requires_tensor_profile():
    with pytest.raises(ValueError):
        tensor_parallel_trace(vgg19(), 2)


def test_traces_require_positive_iterations():
    with pytest.raises(ValueError):
        vgg19_dp_trace(0)
    with pytest.raises(ValueError):
        gpt_tp_trace(-1)


def test_jitter_is_reproducible():
    t1 = data_parallel_trace(resnet50(), 2, jitter=0.2, seed=5)
    t2 = data_parallel_trace(resnet50(), 2, jitter=0.2, seed=5)
    assert [s.compute_seconds for s in t1.steps] == [
        s.compute_seconds for s in t2.steps
    ]
    t3 = data_parallel_trace(resnet50(), 2, jitter=0.2, seed=6)
    assert [s.compute_seconds for s in t1.steps] != [
        s.compute_seconds for s in t3.steps
    ]


@given(st.floats(0.0, 0.4), st.integers(0, 100))
@settings(max_examples=25, deadline=None)
def test_jitter_never_negative(jitter, seed):
    trace = data_parallel_trace(resnet50(), 1, jitter=jitter, seed=seed)
    assert all(s.compute_seconds >= 0 for s in trace.steps)


# -- arrivals ----------------------------------------------------------------
def test_poisson_arrivals_properties():
    jobs = poisson_arrivals(50, seed=0)
    assert len(jobs) == 50
    times = [j.arrival_time for j in jobs]
    assert times == sorted(times)
    assert all(j.num_gpus in (16, 32) for j in jobs)
    mean_gap = times[-1] / len(times)
    assert 0.1 < mean_gap < 0.4  # around the 200 ms lambda


def test_poisson_arrivals_seeded():
    assert poisson_arrivals(10, seed=3) == poisson_arrivals(10, seed=3)
    assert poisson_arrivals(10, seed=3) != poisson_arrivals(10, seed=4)


def test_poisson_arrivals_validation():
    with pytest.raises(ValueError):
        poisson_arrivals(0)


def test_poisson_size_weights():
    jobs = poisson_arrivals(200, sizes=(8,), seed=1)
    assert all(j.num_gpus == 8 for j in jobs)


# -- production substitutes -----------------------------------------------------
def test_breakdowns_sum_to_one_and_comm_significant():
    for b in product_group_breakdowns():
        assert b.idle + b.memcpy + b.compute + b.comm == pytest.approx(1.0)
        assert b.comm >= 0.10  # "communication constitutes a significant portion"


def test_breakdowns_cover_four_groups():
    groups = [b.group for b in product_group_breakdowns()]
    assert groups == ["A", "B", "C", "D"]


def test_empirical_curve_monotone_toward_two():
    curve = empirical_cross_rack_curve([16, 64, 256, 1024], trials=500, seed=1)
    values = [curve[s] for s in (16, 64, 256, 1024)]
    assert values[0] == 1.0
    assert values == sorted(values)
    assert 1.7 <= values[-1] <= 2.0


def test_simulated_curve_approaches_four():
    curve = simulated_cross_rack_curve([32, 128, 1024])
    assert curve[32] == 1.0
    assert 3.5 <= curve[1024] <= 4.0


def test_curves_reject_ragged_jobs():
    with pytest.raises(ValueError):
        empirical_cross_rack_curve([24], trials=10)  # 3 hosts at 2/rack


def test_dp_trace_stages_minibatch():
    trace = vgg19_dp_trace(3)
    assert memcpy_bytes(trace) == 3 * vgg19().input_bytes_per_iteration
    first = trace.steps[0]
    assert first.memcpy_bytes > 0 and first.collective is None


def test_tp_trace_has_no_memcpy():
    assert memcpy_bytes(gpt_tp_trace(2)) == 0
