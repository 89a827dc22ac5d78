"""The bounded-exploration bandit over strategy arms."""

import pytest

from repro.autotune import ArmStats, UcbBandit, bandit as bandit_module

ARMS = ["ring", "tree", "hd"]


def feed(bandit, costs, rounds=1):
    for _ in range(rounds):
        for arm, cost in costs.items():
            bandit.observe(arm, cost)


def test_arm_stats_mean():
    stats = ArmStats()
    assert stats.mean == float("inf")
    stats.observe(2.0)
    stats.observe(4.0)
    assert stats.mean == pytest.approx(3.0)


def test_observe_rejects_negative_cost():
    with pytest.raises(ValueError):
        UcbBandit().observe("ring", -1.0)


def test_select_requires_arms():
    with pytest.raises(ValueError):
        UcbBandit().select([])


def test_best_arm_prefers_lowest_mean_then_name():
    bandit = UcbBandit()
    feed(bandit, {"ring": 3.0, "tree": 1.0, "hd": 1.0})
    # tie between tree and hd broken deterministically by name
    assert bandit.best_arm(ARMS) == "hd"
    bandit.observe("tree", 0.0)
    assert bandit.best_arm(ARMS) == "tree"


def test_unpulled_arms_tried_first():
    bandit = UcbBandit()
    seen = set()
    for _ in range(len(ARMS)):
        arm = bandit.select(ARMS)
        assert arm not in seen  # never repeats an unpulled arm...
        seen.add(arm)
        bandit.observe(arm, 1.0)
    assert seen == set(ARMS)  # ...until every arm has one pull


def test_exploration_budget_is_a_hard_bound(monkeypatch):
    monkeypatch.setattr(bandit_module, "UCB_C", 2.0)
    monkeypatch.setattr(bandit_module, "EXPLORATION_BUDGET", 5)
    bandit = UcbBandit()
    costs = {"ring": 3.0, "tree": 1.0, "hd": 2.0}
    for _ in range(40):
        arm = bandit.select(ARMS)
        bandit.observe(arm, costs[arm])
    assert bandit.state.exploration_spent <= 5
    assert bandit.exploration_exhausted
    # purely greedy from now on
    for _ in range(10):
        assert bandit.select(ARMS) == "tree"


def test_converges_to_cheapest_arm():
    bandit = UcbBandit()
    costs = {"ring": 3.0, "tree": 1.0, "hd": 2.0}
    pulls = []
    for _ in range(60):
        arm = bandit.select(ARMS)
        bandit.observe(arm, costs[arm])
        pulls.append(arm)
    assert set(pulls[-10:]) == {"tree"}


def test_wide_bounds_never_favour_the_slowest_arm():
    # After 8 pulls an arm pulled once has a width factor of
    # 0.5 * sqrt(2 ln 8) > 1: a width scaled by each arm's own mean would
    # put the 3.0 arm's bound lowest of all.
    bandit = UcbBandit()
    feed(bandit, {"fast": 1.0}, rounds=6)
    feed(bandit, {"slow": 1.7, "slowest": 3.0})
    assert bandit.select(["fast", "slow", "slowest"]) == "fast"


def test_selection_is_deterministic():
    def trajectory():
        bandit = UcbBandit()
        costs = {"ring": 3.0, "tree": 1.0, "hd": 2.0}
        out = []
        for _ in range(20):
            arm = bandit.select(ARMS)
            bandit.observe(arm, costs[arm])
            out.append(arm)
        return out

    assert trajectory() == trajectory()


def test_ucb_explores_undersampled_arms_before_budget_runs_out(monkeypatch):
    monkeypatch.setattr(bandit_module, "UCB_C", 2.0)
    monkeypatch.setattr(bandit_module, "EXPLORATION_BUDGET", 20)
    bandit = UcbBandit()
    # tree looks best but hd has barely been sampled
    feed(bandit, {"ring": 3.0, "tree": 1.0}, rounds=5)
    bandit.observe("hd", 1.05)
    spent = bandit.state.exploration_spent
    choices = {bandit.select(ARMS) for _ in range(1)}
    # the near-tied, undersampled arm gets optimism at least once
    for _ in range(6):
        arm = bandit.select(ARMS)
        bandit.observe(arm, {"ring": 3.0, "tree": 1.0, "hd": 1.05}[arm])
        choices.add(arm)
    assert "hd" in choices
    assert bandit.state.exploration_spent > spent
