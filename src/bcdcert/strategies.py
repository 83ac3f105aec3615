"""Block update rules.

Each x-strategy takes the current point ``p`` together with ``f = f(p)``,
``gx = grad_x f(p)`` and ``g_sq = ||gx||^2``, already measured and checked by
the caller, and returns an :class:`XUpdateResult`: the trial point it valued,
that value, and the ``e_t`` certifying the sufficient-decrease condition

    f(x_t, y_t) - f(x_{t+1}, y_t) >= ||grad_x f(x_t, y_t)||^2 / (2 e_t)

for the step it just took, within the run's tolerance ``tol`` (see
``certificate.check_tol_for``). The test is ``certificate.sufficient_decrease``,
the one the certificate applies, so a step a strategy accepts is a step the
certificate certifies. ``stationary_y`` likewise takes ``f(p)`` and
returns the value and ``||grad_y||^2`` at the point it lands on, so no number
the solver needs is computed twice. A strategy that cannot honor its own
certificate raises (never silently repairs): a violated guarantee means the
caller's oracle is wrong, and that is a bug to surface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .certificate import sufficient_decrease
from .errors import (
    BacktrackExhausted,
    InnerSolveFailed,
    MissingExactMinimizer,
    MissingLipschitzOracle,
    NonFiniteValue,
    SufficientDecreaseViolated,
)
from .problem import BlockPoint, Objective, checked_grad, checked_value, positive_lipschitz

_INNER_CAP = 50_000


@dataclass
class XUpdateResult:
    """One certified x-block update.

    ``point`` is (x_{t+1}, y_t), ``f_next`` the objective value there,
    ``e_t`` the certified constant and ``inner_evals`` the number of
    ``value`` calls the update made (its trial points).
    """

    point: BlockPoint
    f_next: float
    e_t: float
    inner_evals: int


@dataclass(frozen=True)
class BacktrackParams:
    """Doubling schedule for an unknown block Lipschitz constant."""

    l_init: float = 1.0
    growth: float = 2.0
    max_rejects: int = 60

    def __post_init__(self):
        if not self.l_init > 0:
            raise ValueError("l_init must be positive")
        if not self.growth > 1:
            raise ValueError("growth must exceed 1")
        if self.max_rejects < 1:
            raise ValueError("max_rejects must be at least 1")


def _verify_decrease(f: float, f_next: float, g_sq: float, lip: float, tol: float, culprit: str):
    if not sufficient_decrease(f, f_next, g_sq, lip, tol):
        raise SufficientDecreaseViolated(
            f"decrease {f - f_next:.6g} < required {g_sq / (2.0 * lip):.6g} with declared "
            f"L={lip:.6g}; {culprit} oracle is wrong"
        )


def fixed_step_gradient_x(
    obj: Objective, p: BlockPoint, f: float, gx: np.ndarray, g_sq: float, tol: float
) -> XUpdateResult:
    """Gradient step x - (1/L) grad_x with the oracle's L(y); e_t = L(y).

    Verifies the achieved decrease against ||grad_x||^2 / (2L) and raises
    SufficientDecreaseViolated if the oracle's constant was too small.
    """
    lip = obj.lipschitz_x(p.y)
    if lip is None:
        raise MissingLipschitzOracle("fixed-step update needs obj.lipschitz_x(y)")
    lip = positive_lipschitz(lip)
    point = p._adopt_x(p.x - gx / lip)
    f_next = checked_value(obj, point)
    _verify_decrease(f, f_next, g_sq, lip, tol, "lipschitz_x")
    return XUpdateResult(point, f_next, lip, inner_evals=1)


def exact_min_x(
    obj: Objective, p: BlockPoint, f: float, gx: np.ndarray, g_sq: float, tol: float
) -> XUpdateResult:
    """x_{t+1} = argmin_x f(x, y_t); e_t = L(y_t).

    The exact minimizer decreases f at least as much as the 1/L gradient step,
    so the same constant certifies the condition.
    """
    lip = obj.lipschitz_x(p.y)
    if lip is None:
        raise MissingLipschitzOracle("exact-min update still reports e_t = L(y)")
    x_next = obj.exact_min_x(p.y)
    if x_next is None:
        raise MissingExactMinimizer("objective provides no exact_min_x oracle")
    lip = positive_lipschitz(lip)
    point = p.with_x(x_next)
    obj.check_point(point)
    f_next = checked_value(obj, point)
    _verify_decrease(f, f_next, g_sq, lip, tol, "exact_min_x or lipschitz_x")
    return XUpdateResult(point, f_next, lip, inner_evals=1)


def backtracking_gradient_x(
    obj: Objective, p: BlockPoint, f: float, gx: np.ndarray, g_sq: float, tol: float,
    params: BacktrackParams,
) -> XUpdateResult:
    """Grow a Lipschitz estimate until the trial step certifies the condition.

    Tries x - (1/L̂) grad_x for L̂ in {l_init * growth^k} and accepts the first
    trial with f(x,y) - f(x',y) >= ||grad_x||^2 / (2 L̂) - tol; e_t is the accepted
    estimate. A non-finite trial value counts as a rejection (the step
    overshot the finite domain; growing L̂ recovers).
    """
    if g_sq == 0.0:
        return XUpdateResult(p, f, params.l_init, 0)

    l_hat = params.l_init
    for trials in range(1, params.max_rejects + 2):
        trial = p._adopt_x(p.x - gx / l_hat)
        try:
            f_try = checked_value(obj, trial)
        except NonFiniteValue:
            f_try = math.inf  # fails the test below: a rejection
        # tol keeps tiny gradients workable: once ||g||^2/(2L) falls under
        # the roundoff of the f subtraction, an exact test would reject
        # every estimate and exhaust.
        if sufficient_decrease(f, f_try, g_sq, l_hat, tol):
            return XUpdateResult(trial, f_try, l_hat, trials)
        l_hat *= params.growth
    raise BacktrackExhausted(
        f"no acceptable step after {params.max_rejects} rejections "
        f"(last estimate {l_hat:.3g}); bad l_init or non-Lipschitz region"
    )


def _inner_descent_y(obj, p, f, y_tol, tol):
    """Fallback when no exact y minimizer exists: certified descent on y alone.

    Starts from ``p`` with ``f = f(p)``; returns (point, residual, f,
    ||grad_y||^2) at the first point whose residual is within y_tol. Steps are accepted
    with the x-strategies' decrease test and tolerance ``tol``.
    """
    point = p
    l_hat = 1.0
    for _ in range(_INNER_CAP):
        gy, g_sq = checked_grad(obj, point, "y")
        res = math.sqrt(g_sq)
        if res <= y_tol:
            return point, res, f, g_sq
        for _ in range(200):
            trial = point._adopt_y(point.y - gy / l_hat)
            try:
                f_try = checked_value(obj, trial)
            except NonFiniteValue:
                f_try = math.inf  # fails the test below: a rejection
            # tol matters here: near stationarity the true decrease is
            # ~||gy||^2/l, far below the roundoff of the f subtraction.
            if sufficient_decrease(f, f_try, g_sq, l_hat, tol):
                point, f = trial, f_try
                break
            l_hat *= 2.0
        else:
            raise InnerSolveFailed("inner y-descent line search exhausted")
    raise InnerSolveFailed(f"y residual above {y_tol:.3g} after {_INNER_CAP} inner steps")


def stationary_y(obj: Objective, p: BlockPoint, f_before: float, y_tol: float, tol: float):
    """Drive the y block to (numerical) stationarity at fixed x.

    ``f_before`` is f(p). Uses the exact minimizer when the objective
    provides one, otherwise an inner certified-descent loop, until
    ||grad_y|| <= y_tol. Returns (point, residual, f_after, gy_sq) at the
    new point, where gy_sq is ||grad_y||^2 and residual its square root; the
    residual is recorded rather than hidden so the certificate can expose
    inexact solves. Never increases f by more than ``tol``, the
    certificate's allowance for the y-step.
    """
    if not y_tol > 0:
        raise ValueError("y_tol must be positive")
    obj.check_point(p)
    if obj.n_y == 0:
        return p, 0.0, f_before, 0.0

    y_exact = obj.exact_min_y(p.x)
    if y_exact is not None:
        point = p.with_y(y_exact)
        obj.check_point(point)
        _, gy_sq = checked_grad(obj, point, "y")
        residual = math.sqrt(gy_sq)
        if residual > y_tol:
            raise InnerSolveFailed(
                f"exact_min_y left residual {residual:.3g} > y_tol {y_tol:.3g}"
            )
        f_after = checked_value(obj, point)
    else:
        point, residual, f_after, gy_sq = _inner_descent_y(obj, p, f_before, y_tol, tol)

    if f_after > f_before + tol:
        raise InnerSolveFailed(
            f"y update increased f from {f_before:.6g} to {f_after:.6g}"
        )
    return point, residual, f_after, gy_sq


def full_gradient_step(p: BlockPoint, gx: np.ndarray, gy: np.ndarray, step: float) -> BlockPoint:
    """Joint gradient step on both blocks from gradients measured at p; baseline only."""
    if step < 0:
        raise ValueError("step must be nonnegative")
    return BlockPoint(p.x - step * gx, p.y - step * gy)
