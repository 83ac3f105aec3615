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

from .audit import check_tol_for
from .errors import DegenerateRegion, MissingExactMinimizer
from .problem import BlockPoint, Objective, checked_grad, checked_lipschitz, checked_minimizer, checked_value
from .problems import random_start

# The gradient check's directional probes (see run_oracle_checks): how many
# per block at each point after the first, and the error, relative to
# max(1, ||g||), above which that point gets a coordinate scan. Honest
# oracles of the bundled families stay below 5e-10 on these probes.
DIRECTIONS = 2
DIRECTION_TRIGGER = 1e-8


@dataclass
class FiniteDiffReport:
    """Worst-case central-difference vs analytic-gradient discrepancy."""

    max_rel_err: float
    worst_index: tuple  # (block, coordinate), e.g. ("x", 3)


def _central_difference(obj: Objective, adopt, base: np.ndarray, step: np.ndarray, h: float) -> float:
    """(f(base + step) - f(base - step)) / (2 h), with ``adopt`` putting a block into the point.

    The derivative of f along ``step / h``, to second order in h; the
    coordinate scan and the directional probe both estimate with it.
    """
    hi, lo = adopt(base + step), adopt(base - step)
    return (checked_value(obj, hi) - checked_value(obj, lo)) / (2.0 * h)


def _scan(obj: Objective, p: BlockPoint, gx: np.ndarray, gy: np.ndarray, h: float | None) -> FiniteDiffReport:
    """``fd_check_gradients`` at p, given its checked block gradients."""
    max_rel = 0.0
    worst = ("x", -1) if p.n_x else ("y", -1)
    for block, grad, base, adopt in (("x", gx, p.x, p._adopt_x), ("y", gy, p.y, p._adopt_y)):
        step = np.zeros(base.size)
        for i, (b_i, g_i) in enumerate(zip(base.tolist(), grad.tolist())):
            h_i = h if h is not None else 1e-5 * max(1.0, abs(b_i))
            step[i] = h_i
            fd = _central_difference(obj, adopt, base, step, h_i)
            step[i] = 0.0
            rel_err = abs(fd - g_i) / max(1.0, abs(g_i))
            if rel_err >= max_rel:
                max_rel = rel_err
                worst = (block, i)
    return FiniteDiffReport(max_rel, worst)


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
    return _scan(obj, p, checked_grad(obj, p, "x")[0], checked_grad(obj, p, "y")[0], h)


def _directions_agree(obj: Objective, p: BlockPoint, gx: tuple, gy: tuple, rng) -> bool:
    """Whether DIRECTIONS central differences per block, along random +-1 directions d, match g.d.

    ``gx`` and ``gy`` are ``checked_grad``'s (g, ||g||^2) at p. Each
    difference must be within DIRECTION_TRIGGER * max(1, ||g||) of g.d;
    ||g|| is the standard deviation of g.d over the directions. The block
    moves by h d, with h = 1e-5 * max(1, max |coordinate|). Stops at the
    first miss.
    """
    for (grad, g_sq), base, adopt in ((gx, p.x, p._adopt_x), (gy, p.y, p._adopt_y)):
        if base.size == 0:
            continue
        allowed = DIRECTION_TRIGGER * max(1.0, math.sqrt(g_sq))
        h = 1e-5 * max(1.0, float(np.abs(base).max()))
        for _ in range(DIRECTIONS):
            d = rng.choice((-1.0, 1.0), size=base.size)
            slope = float(grad @ d)
            fd = _central_difference(obj, adopt, base, h * d, h)
            # an overflowing g.d or ||g||^2 leaves nothing to compare: scan
            if not (abs(fd - slope) <= allowed < math.inf):
                return False
    return True


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
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    y = np.atleast_1d(np.asarray(y, dtype=float)).ravel()
    lo, hi = float(region[0]), float(region[1])
    if obj.n_x == 0 or not hi > lo:
        raise DegenerateRegion("sampling box has zero volume")
    at_y = BlockPoint((), y)  # y validated once; each probe adopts its own x

    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(samples):
        xa = lo + (hi - lo) * rng.random(obj.n_x)
        xb = lo + (hi - lo) * rng.random(obj.n_x)
        dist = float(np.linalg.norm(xb - xa))
        if dist == 0.0:
            continue
        ga, _ = checked_grad(obj, at_y._adopt_x(xa), "x")
        gb, _ = checked_grad(obj, at_y._adopt_x(xb), "x")
        ratio = float(np.linalg.norm(gb - ga)) / dist
        if ratio > best:
            best = ratio
    return best


def _answers(checks, name, size, read, points):
    """``(i, read(points[i]))`` for each point where an optional oracle answers
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
            answered.append((i, answer))
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

    The gradient check scans every coordinate (``fd_check_gradients``) at
    the first point, and at another point only when a directional probe
    there misses (``_directions_agree``). Its verdict, ``max_rel_err`` and
    ``worst_coordinate`` come from the scans alone, under 1e-6, so it never
    fails an oracle that scanning every point passes. It can miss an error
    the first scan does not flag that stays under the trigger everywhere else.
    """
    if points < 1:
        raise ValueError("points must be at least 1")
    starts = [random_start(obj, seed + i) for i in range(points)]

    rng = np.random.default_rng(seed)
    scans = []
    grads = []  # checked_grad's (g, ||g||^2) per block at each start, for the minimizer checks
    for i, p in enumerate(starts):
        obj.check_point(p)
        gx, gy = checked_grad(obj, p, "x"), checked_grad(obj, p, "y")
        grads.append({"x": gx, "y": gy})
        if i == 0 or not _directions_agree(obj, p, gx, gy, rng):
            scans.append(_scan(obj, p, gx[0], gy[0], None))
    worst = max(scans, key=lambda rep: rep.max_rel_err)
    checks = [
        {
            "name": "fd_gradients",
            "status": "ok" if worst.max_rel_err <= 1e-6 else "fail",
            "max_rel_err": worst.max_rel_err,
            "worst_coordinate": list(worst.worst_index),
            "points": points,
        }
    ]

    f_starts = {}  # f at each start, read once for both blocks' checks
    for block, size in (("y", obj.n_y), ("x", obj.n_x)):
        name = f"exact_min_{block}"
        answered = _answers(checks, name, size,
                            lambda p: checked_minimizer(obj, p, block), starts[:5])
        if answered is None:
            continue
        worst_res, ok = 0.0, True
        for i, q in answered:
            res = math.sqrt(checked_grad(obj, q, block)[1])
            base = max(1.0, math.sqrt(grads[i][block][1]))
            worst_res = max(worst_res, res / base)
            if i not in f_starts:
                f_starts[i] = checked_value(obj, starts[i])
            f_p = f_starts[i]
            if res > 1e-10 * base or checked_value(obj, q) > f_p + check_tol_for(f_p):
                ok = False
        checks.append({"name": name, "status": "ok" if ok else "fail",
                       "max_rel_residual": worst_res})

    answered = _answers(checks, "lipschitz_probe", obj.n_x,
                        lambda p: checked_lipschitz(obj, p.y), starts[:3])
    if answered is not None:
        worst_ratio, ok = 0.0, True
        for i, declared in answered:
            probe = probe_lipschitz_x(obj, starts[i].y, (-2.0, 2.0), samples=100, seed=seed)
            worst_ratio = max(worst_ratio, probe / declared)
            if probe > declared * (1.0 + 1e-6):
                ok = False
        checks.append(
            {"name": "lipschitz_probe", "status": "ok" if ok else "fail",
             "max_probe_over_declared": worst_ratio}
        )

    passed = all(c["status"] != "fail" for c in checks)
    return passed, {"checks": checks, "passed": passed}
