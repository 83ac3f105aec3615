"""Independent numerical oracles and the oracle checks built on them.

The probes deliberately avoid the analytic code paths they are used to
check: gradients are probed by central differences and Lipschitz constants by
sampled secant ratios. The Lipschitz probe can only certify violations (it is
a lower estimate of the true region constant), never validate an oracle
exactly.

``run_oracle_checks`` holds the check policy: which points are tried, the
threshold each check must meet and when an optional oracle's check is
skipped. The ``check`` subcommand only prints its result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .certificate import check_tol_for
from .errors import DegenerateRegion, MissingExactMinimizer
from .problem import BlockPoint, Objective, checked_grad, checked_lipschitz, checked_minimizer, checked_value
from .problems import random_start


@dataclass
class FiniteDiffReport:
    """Worst-case central-difference vs analytic-gradient discrepancy."""

    max_rel_err: float
    worst_index: tuple  # (block, coordinate), e.g. ("x", 3)


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
    worst = ("x", -1) if p.n_x else ("y", -1)
    for block, grad, base in (("x", gx, p.x), ("y", gy, p.y)):
        for i in range(base.size):
            h_i = h if h is not None else 1e-5 * max(1.0, abs(base[i]))
            fd = _central_diff(obj, p, block, i, h_i)
            rel_err = abs(fd - grad[i]) / max(1.0, abs(grad[i]))
            if rel_err >= max_rel:
                max_rel = rel_err
                worst = (block, i)
    return FiniteDiffReport(max_rel, worst)


def probe_lipschitz_x(
    obj: Objective,
    y,
    region,
    samples: int = 100,
    seed: int = 0,
) -> float:
    """Empirical lower estimate of the block-x Lipschitz constant at fixed y.

    Draws ``samples`` point pairs (x, x') uniformly from the box
    [lo, hi]^n_x given by ``region=(lo, hi)`` and returns the largest secant
    ratio ||grad_x(x', y) - grad_x(x, y)|| / ||x' - x||. Deterministic given
    seed.
    """
    if samples < 2:
        raise ValueError("samples must be >= 2")
    y = np.atleast_1d(np.asarray(y, dtype=float)).ravel()
    lo, hi = float(region[0]), float(region[1])
    if obj.n_x == 0 or not hi > lo:
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


def _answers(checks, name, size, read, points):
    """``(p, read(p))`` for each of ``points`` where an optional oracle answers
    (neither returns None nor raises MissingExactMinimizer). None when check
    ``name`` is skipped instead, which is then appended to ``checks``: its
    block is empty (``size`` 0) or the oracle declines at the first point."""
    if size == 0:
        checks.append({"name": name, "status": "skipped (empty block)"})
        return None
    answered = []
    for i, p in enumerate(points):
        try:
            answer = read(p)
        except MissingExactMinimizer:
            answer = None
        if answer is not None:
            answered.append((p, answer))
        elif i == 0:
            checks.append({"name": name, "status": "skipped (no oracle)"})
            return None
    return answered


def run_oracle_checks(obj, points: int = 20, seed: int = 0) -> tuple[bool, dict]:
    """Oracle cross-checks for one objective; returns (all_passed, payload).

    Three groups: central finite differences against both gradient blocks,
    declared exact minimizers actually zeroing their block gradient (and not
    increasing f), and the sampled secant-ratio probe never exceeding the
    declared Lipschitz oracle by more than a factor 1 + 1e-6. Oracle answers
    are read through the ``problem.checked_*`` helpers, as in ``solve()``: a
    NaN or wrong-size one raises. An optional oracle that declines at the
    first point has its check skipped; one that declines later skips that
    point (see ``_answers``).
    """
    if points < 1:
        raise ValueError("points must be at least 1")
    starts = [random_start(obj, seed + i) for i in range(points)]

    worst = max((fd_check_gradients(obj, p) for p in starts), key=lambda rep: rep.max_rel_err)
    checks = [
        {
            "name": "fd_gradients",
            "status": "ok" if worst.max_rel_err <= 1e-6 else "fail",
            "max_rel_err": worst.max_rel_err,
            "worst_coordinate": list(worst.worst_index),
            "points": points,
        }
    ]

    for block, size in (("y", obj.n_y), ("x", obj.n_x)):
        name = f"exact_min_{block}"
        answered = _answers(checks, name, size,
                            lambda p: checked_minimizer(obj, p, block), starts[:5])
        if answered is None:
            continue
        worst_res, ok = 0.0, True
        for p, q in answered:
            res = math.sqrt(checked_grad(obj, q, block)[1])
            base = max(1.0, math.sqrt(checked_grad(obj, p, block)[1]))
            worst_res = max(worst_res, res / base)
            f_p = checked_value(obj, p)
            if res > 1e-10 * base or checked_value(obj, q) > f_p + check_tol_for(f_p):
                ok = False
        checks.append({"name": name, "status": "ok" if ok else "fail",
                       "max_rel_residual": worst_res})

    answered = _answers(checks, "lipschitz_probe", obj.n_x,
                        lambda p: checked_lipschitz(obj, p.y), starts[:3])
    if answered is not None:
        worst_ratio, ok = 0.0, True
        for p, declared in answered:
            probe = probe_lipschitz_x(obj, p.y, (-2.0, 2.0), samples=100, seed=seed)
            worst_ratio = max(worst_ratio, probe / declared)
            if probe > declared * (1.0 + 1e-6):
                ok = False
        checks.append(
            {"name": "lipschitz_probe", "status": "ok" if ok else "fail",
             "max_probe_over_declared": worst_ratio}
        )

    passed = all(c["status"] != "fail" for c in checks)
    return passed, {"checks": checks, "passed": passed}
