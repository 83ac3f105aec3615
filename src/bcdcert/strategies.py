"""Block update rules.

Each x-strategy takes the current point ``p`` together with ``f = f(p)``,
``gx = grad_x f(p)`` and ``g_sq = ||gx||^2``, already measured and checked by
the caller, and returns an :class:`XUpdateResult`: the trial point it valued,
that value, and the ``e_t`` certifying the sufficient-decrease condition

    f(x_t, y_t) - f(x_{t+1}, y_t) >= ||grad_x f(x_t, y_t)||^2 / (2 e_t)

for the step it just took, within the run's tolerance ``tol`` (see
``audit.check_tol_for``). The test is ``audit.sufficient_decrease``,
the one the certificate applies, so a step a strategy accepts is a step the
certificate certifies. ``stationary_y`` likewise takes ``f(p)`` and
returns the value and ``||grad_y||^2`` at the point it lands on, so no number
the solver needs is computed twice. ``backtracking`` on x and a y block
without ``exact_min_y`` share one line search on the run's ``BacktrackParams``
and hand back the estimate it accepted, which the caller passes as ``l_hat``
to the block's next search (None before its first, see ``_line_search``). A
strategy that cannot honor its own certificate raises (never silently
repairs): a violated guarantee means the caller's oracle is wrong, and that
is a bug to surface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .audit import sufficient_decrease
from .errors import (
    BacktrackExhausted,
    InnerSolveFailed,
    MissingExactMinimizer,
    MissingLipschitzOracle,
    NonFiniteValue,
    SufficientDecreaseViolated,
)
from .problem import (
    BlockPoint, Objective, checked_grad, checked_lipschitz, checked_minimizer, checked_value
)

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
    """Doubling schedule for an unknown block Lipschitz constant.

    ``l_init`` is the starting guess of each block's first search, which may
    calibrate below it (see ``_line_search``); later searches start from the
    estimate their block last accepted and only grow it, by ``growth`` per
    rejected trial, up to ``max_rejects`` rejections.
    """

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
    lip = checked_lipschitz(obj, p.y)
    if lip is None:
        raise MissingLipschitzOracle("fixed-step update needs obj.lipschitz_x(y)")
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
    # the minimizer first: a singular block raises MissingExactMinimizer even if its L is 0
    point = checked_minimizer(obj, p, "x")
    lip = checked_lipschitz(obj, p.y)
    if lip is None:
        raise MissingLipschitzOracle("exact-min update still reports e_t = L(y)")
    if point is None:
        raise MissingExactMinimizer("objective provides no exact_min_x oracle")
    f_next = checked_value(obj, point)
    _verify_decrease(f, f_next, g_sq, lip, tol, "exact_min_x or lipschitz_x")
    return XUpdateResult(point, f_next, lip, inner_evals=1)


def _line_search(obj, p, block, f, g, g_sq, tol, params, l_hat=None):
    """The backtracking line search of both blocks.

    Moves ``block`` ("x" or "y") of ``p`` from v to v - g / L̂, ``g`` its
    gradient at ``p``, for L̂ in {l_hat * growth^k}, and returns ``(trial,
    f_trial, L̂, trials)`` for the first trial with f - f(trial) >=
    g_sq / (2 L̂) - tol. A non-finite trial value counts as a rejection (the
    step overshot the finite domain; growing L̂ recovers).

    ``l_hat`` is the estimate the block carries from its last search, and
    None before its first, which starts at ``params.l_init``, only a guess.
    If that trial passes on its first try, and not only through ``tol``
    (g_sq / (2 l_init) > tol), the search calibrates down: it tries
    l_init / growth^k for k = 1, 2, ... while the same test passes, within
    ``max_rejects + 1`` trials in all, and returns the smallest estimate
    that passed. A search from a carried estimate only grows it.
    """
    adopt, v = (p._adopt_x, p.x) if block == "x" else (p._adopt_y, p.y)
    # tol keeps tiny gradients workable: once ||g||^2/(2L) falls under the
    # roundoff of the f subtraction, an exact test would reject every
    # estimate and exhaust.
    calibrate = l_hat is None
    if calibrate:
        l_hat = params.l_init
    for trials in range(1, params.max_rejects + 2):
        trial, f_try = _trial(obj, adopt, v, g, l_hat)
        if sufficient_decrease(f, f_try, g_sq, l_hat, tol):
            break
        l_hat *= params.growth
    else:
        raise BacktrackExhausted(
            f"no acceptable step after {params.max_rejects} rejections "
            f"(last estimate {l_hat:.3g}); bad l_init or non-Lipschitz region"
        )
    if calibrate and trials == 1 and g_sq / (2.0 * l_hat) > tol:
        for trials in range(2, params.max_rejects + 2):
            lower = l_hat / params.growth
            lower_trial, f_lower = _trial(obj, adopt, v, g, lower)
            if not sufficient_decrease(f, f_lower, g_sq, lower, tol):
                break
            trial, f_try, l_hat = lower_trial, f_lower, lower
    return trial, f_try, l_hat, trials


def _trial(obj, adopt, v, g, l_hat):
    """The point with its block moved from v to v - g / l_hat (``adopt`` puts the
    block in), and f there; inf when f is not finite, which fails any decrease test."""
    trial = adopt(v - g / l_hat)
    try:
        return trial, checked_value(obj, trial)
    except NonFiniteValue:
        return trial, math.inf


def backtracking_gradient_x(
    obj: Objective, p: BlockPoint, f: float, gx: np.ndarray, g_sq: float, tol: float,
    params: BacktrackParams, l_hat: float | None = None,
) -> XUpdateResult:
    """The x call of ``_line_search``: e_t is the estimate it accepts.

    A zero gradient searches nothing (``inner_evals`` 0) and reports ``l_hat``,
    or ``params.l_init`` before the block's first search.
    """
    if g_sq == 0.0:
        return XUpdateResult(p, f, params.l_init if l_hat is None else l_hat, 0)
    return XUpdateResult(*_line_search(obj, p, "x", f, gx, g_sq, tol, params, l_hat))


def stationary_y(obj: Objective, p: BlockPoint, f_before: float, y_tol: float, tol: float,
                 params: BacktrackParams, l_hat: float | None = None):
    """Drive the y block to (numerical) stationarity at fixed x.

    ``f_before`` is f(p). Uses the exact minimizer when the objective
    provides one, otherwise y calls of ``_line_search`` on ``params`` from
    the carried estimate ``l_hat``, until ||grad_y|| <= y_tol. Returns
    (point, residual, f_after, gy_sq, l_hat) at the new point, where gy_sq
    is ||grad_y||^2, residual its square root and l_hat the estimate to
    carry: the last one accepted, or the one given if none was. The residual
    is recorded rather than hidden so the certificate can expose inexact
    solves. Never increases f by more than ``tol``, the certificate's
    allowance for the y-step.
    """
    if not y_tol > 0:
        raise ValueError("y_tol must be positive")
    obj.check_point(p)
    if obj.n_y == 0:
        return p, 0.0, f_before, 0.0, l_hat

    point = checked_minimizer(obj, p, "y")
    if point is not None:
        _, gy_sq = checked_grad(obj, point, "y")
        residual = math.sqrt(gy_sq)
        if residual > y_tol:
            raise InnerSolveFailed(f"exact_min_y left residual {residual:.3g} > y_tol {y_tol:.3g}")
        f_after = checked_value(obj, point)
    else:
        point, f_after = p, f_before
        for _ in range(_INNER_CAP):
            gy, gy_sq = checked_grad(obj, point, "y")
            residual = math.sqrt(gy_sq)
            if residual <= y_tol:
                break
            point, f_after, l_hat, _ = _line_search(
                obj, point, "y", f_after, gy, gy_sq, tol, params, l_hat
            )
        else:
            raise InnerSolveFailed(f"y residual above {y_tol:.3g} after {_INNER_CAP} inner steps")

    if f_after > f_before + tol:
        raise InnerSolveFailed(f"y update increased f from {f_before:.6g} to {f_after:.6g}")
    return point, residual, f_after, gy_sq, l_hat
