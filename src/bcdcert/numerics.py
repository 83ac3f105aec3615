"""Independent numerical oracles.

These routines deliberately avoid the analytic code paths they are used to
check: gradients are probed by central differences and Lipschitz constants by
sampled secant ratios. The Lipschitz probe can only certify violations (it is
a lower estimate of the true region constant), never validate an oracle
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateRegion
from .problem import BlockPoint, Objective, checked_grad, checked_value


@dataclass
class FiniteDiffReport:
    """Worst-case central-difference vs analytic-gradient discrepancy."""

    max_rel_err: float
    max_abs_err: float
    worst_index: tuple  # (block, coordinate), e.g. ("x", 3)
    h: float


def _central_diff(obj, p, block, i, h):
    base = p.x if block == "x" else p.y
    e = np.zeros(base.size)
    e[i] = h
    if block == "x":
        hi, lo = p.with_x(base + e), p.with_x(base - e)
    else:
        hi, lo = p.with_y(base + e), p.with_y(base - e)
    return (checked_value(obj, hi) - checked_value(obj, lo)) / (2.0 * h)


def fd_check_gradients(obj: Objective, p: BlockPoint, h: float | None = None) -> FiniteDiffReport:
    """Compare grad_x/grad_y against central differences, coordinate by coordinate.

    With ``h=None``, each coordinate uses 1e-5 * max(1, |coordinate|), which
    balances truncation and rounding in double precision. Relative error is
    denominated by max(1, |analytic|) so it degrades gracefully to absolute
    error near zero. A gradient of the wrong size or with NaN/Inf entries, or
    a non-finite value at a probe point, raises instead of being compared.
    """
    if h is not None and not h > 0:
        raise ValueError("h must be positive")
    obj.check_point(p)
    gx, _ = checked_grad(obj, p, "x")
    gy, _ = checked_grad(obj, p, "y")

    max_rel = 0.0
    max_abs = 0.0
    worst = ("x", -1) if p.n_x else ("y", -1)
    h_worst = h if h is not None else 1e-5
    for block, grad, base in (("x", gx, p.x), ("y", gy, p.y)):
        for i in range(base.size):
            h_i = h if h is not None else 1e-5 * max(1.0, abs(base[i]))
            fd = _central_diff(obj, p, block, i, h_i)
            abs_err = abs(fd - grad[i])
            rel_err = abs_err / max(1.0, abs(grad[i]))
            if abs_err > max_abs:
                max_abs = abs_err
            if rel_err >= max_rel:
                max_rel = rel_err
                worst = (block, i)
                h_worst = h_i
    return FiniteDiffReport(max_rel, max_abs, worst, h_worst)


def probe_lipschitz_x(
    obj: Objective,
    y,
    region,
    samples: int = 100,
    seed: int = 0,
) -> float:
    """Empirical lower estimate of the block-x Lipschitz constant at fixed y.

    Draws ``samples`` point pairs (x, x') uniformly from the box
    ``region=(lo, hi)`` and returns the largest secant ratio
    ||grad_x(x', y) - grad_x(x, y)|| / ||x' - x||. Deterministic given seed.
    """
    if samples < 2:
        raise ValueError("samples must be >= 2")
    y = np.atleast_1d(np.asarray(y, dtype=float)).ravel()
    lo = np.broadcast_to(np.asarray(region[0], dtype=float), (obj.n_x,)).astype(float)
    hi = np.broadcast_to(np.asarray(region[1], dtype=float), (obj.n_x,)).astype(float)
    if obj.n_x == 0 or not np.all(hi > lo):
        raise DegenerateRegion("sampling box has zero volume")

    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(samples):
        xa = lo + (hi - lo) * rng.random(obj.n_x)
        xb = lo + (hi - lo) * rng.random(obj.n_x)
        dist = float(np.linalg.norm(xb - xa))
        if dist == 0.0:
            continue
        ga, _ = checked_grad(obj, BlockPoint(xa, y), "x")
        gb, _ = checked_grad(obj, BlockPoint(xb, y), "x")
        ratio = float(np.linalg.norm(gb - ga)) / dist
        if ratio > best:
            best = ratio
    return best

