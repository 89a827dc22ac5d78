"""``MccsDeployment.drain``: the one busy-retrying way to the barrier.

The elastic coordinator and live upgrades hand it their own constant
:class:`~repro.resilience.Backoff`; these cases drive it directly with a
third one so every arm (drained, gone, exhausted) is pinned on the
simulation clock.
"""

import pytest

from repro.errors import CommunicatorError, ReconfigurationError
from repro.resilience import Backoff

DELAY = 0.01
RETRY = Backoff(base=DELAY, cap=DELAY, max_retries=4)  # five tries


def _drain(deployment, comm):
    log = []
    sim = deployment.sim
    deployment.drain(
        comm,
        retry=RETRY,
        barrier_timeout=None,
        on_done=lambda session: log.append(("done", session.issue_time)),
        on_gone=lambda: log.append(("gone", sim.now)),
        on_exhausted=lambda error: log.append(("exhausted", sim.now, error)),
        routes={},
    )
    return log


def _hold_barrier(deployment, comm, seconds):
    """Keep ``comm``'s barrier busy: a session delivered ``seconds`` late."""
    deployment.reconfigure(
        comm.comm_id, routes={}, delays=[seconds] * comm.world
    )


def test_idle_communicator_drains_on_the_first_try(deployment, four_gpus):
    comm = deployment.create_communicator("A", four_gpus)
    log = _drain(deployment, comm)
    deployment.run()
    assert log == [("done", 0.0)]
    assert comm.strategy.version == 1


@pytest.mark.parametrize("busy_tries", [1, 3, 4])
def test_busy_for_k_tries_drains_on_the_next_at_k_delays(
    deployment, four_gpus, busy_tries
):
    comm = deployment.create_communicator("A", four_gpus)
    _hold_barrier(deployment, comm, (busy_tries - 0.5) * DELAY)
    log = _drain(deployment, comm)
    deployment.run()
    assert log == [("done", pytest.approx(busy_tries * DELAY, abs=1e-12))]
    assert comm.strategy.version == 2  # the holder's, then the drain's


def test_communicator_dying_mid_drain_reaches_on_gone(deployment, four_gpus):
    comm = deployment.create_communicator("A", four_gpus)
    _hold_barrier(deployment, comm, 1.0)
    log = _drain(deployment, comm)
    deployment.sim.call_in(
        1.5 * DELAY, lambda: comm.abort(CommunicatorError("killed"))
    )
    deployment.run()
    assert log == [("gone", pytest.approx(2 * DELAY, abs=1e-12))]


def test_n_busy_tries_reach_on_exhausted_once(deployment, four_gpus):
    comm = deployment.create_communicator("A", four_gpus)
    _hold_barrier(deployment, comm, 1.0)
    log = _drain(deployment, comm)
    deployment.run()
    (entry,) = log
    assert entry[:2] == ("exhausted", pytest.approx(5 * DELAY, abs=1e-12))
    # One error names the communicator, every try and the last cause.
    assert isinstance(entry[2], ReconfigurationError)
    assert str(entry[2]) == (
        f"drain of communicator {comm.comm_id} failed after 5 tries: "
        f"communicator {comm.comm_id} already reconfiguring"
    )
    # Five tries, none of which pushed a session: only the holder's did.
    assert len(deployment.telemetry().sessions) == 1
