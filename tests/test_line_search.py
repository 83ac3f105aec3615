"""One line search for both blocks.

Without ``exact_min_y``, ``stationary_y`` takes gradient steps on y found by
the same backtracking line search as x's ``backtracking`` strategy: on the
run's ``BacktrackParams``, with the estimate carried from one step and one
y-solve to the next, and with x's exhaustion error.
"""

import math
from collections import Counter

import numpy as np
import pytest

from bcdcert.audit import check_tol_for
from bcdcert.errors import BacktrackExhausted
from bcdcert.problem import BlockPoint, Objective
from bcdcert.problems import TwoBlockRosenbrock
from bcdcert.solver import SolverConfig, StopReason, solve
from bcdcert.strategies import BacktrackParams, stationary_y

from conftest import zoo_problem, zoo_start
from test_validation_counts import NoExactY

EXHAUSTED = (
    "no acceptable step after 60 rejections (last estimate 2.31e+18); "
    "bad l_init or non-Lipschitz region"
)


def y_rejections(log):
    """Y trials beyond the accepted steps, per y-solve of a logged run.

    A y-solve runs from its ``exact_min_y`` call to the next ``grad_x``. Each
    accepted step is followed by one ``grad_y``, after the first one, and
    every trial is valued once, so the count is value - (grad_y - 1): the
    rejected trials, and in the y-solve of the block's first search also
    those that search made below l_init.
    """
    solves, inside = [], False
    for kind in log:
        if kind == "exact_min_y":
            solves.append(Counter())
            inside = True
        elif kind == "grad_x":
            inside = False
        elif inside:
            solves[-1][kind] += 1
    return [c["value"] - (c["grad_y"] - 1) for c in solves]


# --- the inexact Rosenbrock fault --------------------------------------------

# Oracle calls of the seed-0 run below. Before the shared line search each
# y-solve restarted its estimate at 1.0 and settled on 2, a step that flips
# the sign of y - x^2 without shrinking it, and the run ended with
# InnerSolveFailed after 50000 inner steps.
ROSENBROCK_SEED0_CALLS = {
    "grad_x": 271,
    "value": 549,
    "grad_y": 543,
    "exact_min_y": 271,
}


@pytest.mark.parametrize("seed", [0, 1])
def test_inexact_rosenbrock_is_certified(seed):
    inner = TwoBlockRosenbrock(2.0)
    obj = NoExactY(inner)
    cfg = SolverConfig(x_strategy="backtracking", grad_tol=1e-8, max_iters=1500)
    res = solve(obj, zoo_start(inner, seed), cfg)
    assert res.error is None
    assert res.stop_reason is StopReason.GRAD_TOL
    assert res.certificate.passed()
    if seed == 0:
        assert Counter(obj.log) == Counter(ROSENBROCK_SEED0_CALLS)


# --- the run's schedule governs y, and its estimate is carried ---------------


def coupled_without_exact_y(seed):
    inner = zoo_problem("coupled_quadratic", seed=seed)
    return inner, NoExactY(inner), float(np.linalg.eigvalsh(inner.C)[-1])


@pytest.mark.parametrize("strategy", ["fixed_step", "backtracking"])
@pytest.mark.parametrize("l_init", [1e-3, 1.0])
@pytest.mark.parametrize("seed", range(3))
def test_y_rejections_over_a_solve_are_bounded_by_one_climb(seed, l_init, strategy):
    # y is quadratic with Hessian C, so every estimate >= lambda_max(C) is
    # accepted; a carried estimate climbs there once per run, not per y-solve
    inner, obj, lam = coupled_without_exact_y(seed)
    assert lam > l_init
    cfg = SolverConfig(x_strategy=strategy, backtrack=BacktrackParams(l_init=l_init))
    res = solve(obj, zoo_start(inner, seed), cfg)
    assert res.error is None and res.certificate.passed()
    per_solve = y_rejections(obj.log)
    assert len(per_solve) == res.iterations + 1
    assert sum(per_solve) <= math.ceil(math.log2(lam / l_init))


@pytest.mark.parametrize("strategy", ["fixed_step", "backtracking"])
@pytest.mark.parametrize("seed", range(3))
def test_y_estimate_at_the_curvature_is_never_rejected(seed, strategy):
    inner, obj, lam = coupled_without_exact_y(seed)
    cfg = SolverConfig(x_strategy=strategy, backtrack=BacktrackParams(l_init=lam))
    res = solve(obj, zoo_start(inner, seed), cfg)
    assert res.error is None and res.certificate.passed()
    assert res.iterations > 0
    # the run's first y search passes at lambda_max(C), then tries lambda/2
    # once, which fails; no search after it rejects an estimate
    assert y_rejections(obj.log) == [1] + [0] * res.iterations


def test_stationary_y_returns_the_estimate_it_accepted():
    inner, obj, lam = coupled_without_exact_y(0)
    p = zoo_start(inner, 0)
    f = inner.value(p)
    params = BacktrackParams(l_init=lam / 8)
    q, res, f_after, gy_sq, l_hat = stationary_y(obj, p, f, 1e-8, check_tol_for(f), params)
    assert res <= 1e-8 and f_after < f
    # l_init doubled once per rejection, and never past 2 lambda_max(C),
    # which every estimate from lambda_max(C) on passes
    k = y_rejections(obj.log)[0]
    assert l_hat == params.l_init * 2.0**k and l_hat < 2.0 * lam
    # carried into the next solve, the estimate is not searched for again
    moved = q.with_x(q.x + 1.0)
    *_, l_again = stationary_y(obj, moved, inner.value(moved), 1e-8, check_tol_for(f), params, l_hat)
    assert l_again == l_hat
    assert y_rejections(obj.log)[-1] == 0


# --- exhaustion ---------------------------------------------------------------


class _FlatInY(Objective):
    """f = 1 at y = 0 and 2 elsewhere, with a grad_y of 1: no y step decreases f."""

    n_x, n_y = 1, 1

    def __init__(self):
        self.values = 0

    def value(self, p):
        self.values += 1
        return 1.0 if p.y[0] == 0.0 else 2.0

    def grad_x(self, p):
        return np.array([1.0])

    def grad_y(self, p):
        return np.array([1.0])


def test_y_exhaustion_is_x_exhaustion():
    obj, p = _FlatInY(), BlockPoint([0.0], [0.0])
    with pytest.raises(BacktrackExhausted) as caught:
        stationary_y(obj, p, 1.0, 1e-10, check_tol_for(1.0), BacktrackParams())
    assert str(caught.value) == EXHAUSTED
    assert obj.values == BacktrackParams().max_rejects + 1


def test_y_exhaustion_follows_the_run_schedule():
    obj = _FlatInY()
    params = BacktrackParams(l_init=0.5, growth=3.0, max_rejects=4)
    res = solve(obj, BlockPoint([0.0], [0.0]), SolverConfig(backtrack=params))
    assert res.stop_reason is StopReason.ERROR
    assert isinstance(res.error, BacktrackExhausted)
    # 5 trials at 0.5 * 3^k, then the estimate the sixth would have tried
    assert str(res.error) == (
        f"no acceptable step after 4 rejections (last estimate {0.5 * 3.0**5:.3g}); "
        "bad l_init or non-Lipschitz region"
    )
    assert obj.values == 1 + params.max_rejects + 1  # f at the start, then the trials
    assert res.history == [] and res.certificate.invalidated
