"""Block validations per iteration, pinned for every bundled family x strategy.

``as_vector`` copies a block and tests it for NaN/Inf with its squared norm
(scanning entry by entry only when that norm is not finite). ``solve`` validates
each new block once: the x block of every x-trial (accepted or rejected) and
the y block the y-solve lands on, or of every y line-search trial when the
objective has no exact y minimizer. The block a step leaves alone is shared
with the point before, never validated again. So there is one validation per
new trial point, and each trial point is valued once.

The pin may only ever be lowered; every change to it is logged in CHANGES.md.
"""

import pytest

import bcdcert.problem as problem
from bcdcert.solver import SolverConfig, StopReason, solve

from conftest import ALL_COMBOS, zoo_problem, zoo_start
from test_oracle_counts import SEEDS, CountingObjective, extra_trials, split_at_grad_x

# Before the first iterate: the y block of the initial y-solve's result.
SETUP = 1
# Per iteration: the accepted x-trial and the y-solve's result; each other
# backtracking trial (``extra_trials``) adds one more. An empty y block drops
# the y-solve's.
PER_ITERATION = 2


class NoExactY(CountingObjective):
    """Hides ``exact_min_y``, so ``stationary_y`` runs the y line search."""

    def exact_min_y(self, x):
        self.log.append("exact_min_y")
        return None


def logged_solve(monkeypatch, obj, start, cfg):
    """``solve`` with each ``as_vector`` call logged among the oracle calls."""
    real = problem.as_vector

    def counted(*args, **kwargs):
        obj.log.append("as_vector")
        return real(*args, **kwargs)

    monkeypatch.setattr(problem, "as_vector", counted)
    return solve(obj, start, cfg)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("family,strategy", ALL_COMBOS)
def test_validations_per_iteration_are_pinned(monkeypatch, family, strategy, seed):
    inner = zoo_problem(family, seed=seed)
    obj = CountingObjective(inner)
    cfg = SolverConfig(x_strategy=strategy, max_iters=200)
    res = logged_solve(monkeypatch, obj, zoo_start(inner, 1000 + seed), cfg)
    assert res.stop_reason in (StopReason.GRAD_TOL, StopReason.MAX_ITERS)
    assert res.iterations > 0

    setup, *iterates = split_at_grad_x(obj.log)
    assert setup["as_vector"] == (SETUP if inner.n_y else 0)

    if res.stop_reason is StopReason.GRAD_TOL:
        assert iterates.pop()["as_vector"] == 0
    assert len(iterates) == res.iterations

    rejects = (
        extra_trials(res, cfg.backtrack)
        if strategy == "backtracking"
        else [0] * res.iterations
    )
    per_step = PER_ITERATION if inner.n_y else PER_ITERATION - 1
    for t, (got, extra) in enumerate(zip(iterates, rejects)):
        assert got["as_vector"] == per_step + extra, f"iteration {t}"


@pytest.mark.parametrize(
    "family,strategy",
    [
        ("coupled_quadratic", "fixed_step"),
        ("coupled_quadratic", "backtracking"),
        ("two_block_rosenbrock", "backtracking"),
    ],
)
def test_inner_y_descent_validates_each_trial_once(monkeypatch, family, strategy):
    inner = zoo_problem(family, seed=2)
    obj = NoExactY(inner)
    cfg = SolverConfig(x_strategy=strategy, max_iters=50)
    res = logged_solve(monkeypatch, obj, zoo_start(inner, 7), cfg)
    assert res.stop_reason in (StopReason.GRAD_TOL, StopReason.MAX_ITERS)
    assert res.iterations > 0

    setup, *iterates = split_at_grad_x(obj.log)
    # every trial point is valued once and validated once; f at the start
    # is valued too, but the start was validated by its caller
    assert setup["as_vector"] == setup["value"] - 1
    assert setup["as_vector"] >= 1
    for t, got in enumerate(iterates):
        assert got["as_vector"] == got["value"], f"iteration {t}"
    assert sum(seg["as_vector"] for seg in iterates) > PER_ITERATION * res.iterations
