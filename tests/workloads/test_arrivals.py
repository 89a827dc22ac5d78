"""Property tests for the diurnal rate profile."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.workloads.arrivals import DiurnalProfile

_profiles = st.builds(
    DiurnalProfile,
    period=st.floats(min_value=1.0, max_value=600.0),
    amplitude=st.floats(min_value=0.0, max_value=0.95),
    phase=st.floats(min_value=-100.0, max_value=100.0),
    floor=st.floats(min_value=0.0, max_value=0.5),
)


@settings(max_examples=30, deadline=None)
@given(profile=_profiles, seed=st.integers(0, 2**32 - 1))
def test_rate_factor_respects_floor_and_peak(profile, seed):
    rng = random.Random(seed)
    for _ in range(50):
        t = rng.uniform(-2.0 * profile.period, 2.0 * profile.period)
        factor = profile.rate_factor(t)
        assert profile.floor <= factor <= profile.peak_factor + 1e-12


def test_profile_validation():
    with pytest.raises(ValueError):
        DiurnalProfile(period=0.0)
    with pytest.raises(ValueError):
        DiurnalProfile(amplitude=1.0)
    with pytest.raises(ValueError):
        DiurnalProfile(floor=-0.1)
    with pytest.raises(ValueError):
        DiurnalProfile(bursts=((1.0, 0.0, 2.0),))
