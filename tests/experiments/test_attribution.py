"""Attribution experiment at reduced scale: the setup-1 cells (paper
Fig. 8's leftmost mix) under MCCS+FFA and ECMP reproduce (``check``).
The full grid runs in CI (``python -m repro.experiments attribution``).
"""

import pytest

from repro.experiments import fig_attribution


@pytest.fixture(scope="module")
def grid():
    return fig_attribution.run_attribution(setups=("setup1",), rounds=3)


def test_attribution_reproduces(grid):
    assert fig_attribution.check(grid) == []
