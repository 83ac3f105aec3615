"""Oracle calls per iteration, pinned exactly for every bundled family x strategy.

A counting wrapper logs every oracle call in order. ``solve`` calls grad_x
exactly once per iterate, so the log splits at each grad_x into a setup
segment and one segment per iteration (plus a lone grad_x when the run stops
on grad_tol). Each segment must hold exactly the calls pinned below, and
each solve all the calls pinned in ``TOTAL_CALLS``.

The pin may only ever be lowered; every change to it is logged in CHANGES.md.
"""

import math
from collections import Counter

import pytest

from bcdcert.problem import Objective
from bcdcert.solver import SolverConfig, StopReason, solve, solve_gd_baseline

from conftest import ALL_COMBOS, zoo_problem, zoo_start

# Before the first iterate: grad_y at the start (resolves y_tol), f at the
# start, then the initial y-solve (exact_min_y, grad_y and f at its result).
SETUP = {"grad_y": 2, "value": 2, "exact_min_y": 1}

# Per iteration. "value" counts the accepted x-trial and f after the y-solve;
# each other backtracking trial adds one more: the rejected ones, and on the
# first step those below l_init (see ``extra_trials``). The y-solve calls
# (exact_min_y, grad_y, one value) drop out for an empty y block.
PER_ITERATION = {
    "grad_x": 1,
    "value": 2,
    "grad_y": 1,
    "exact_min_y": 1,
}
PER_ITERATION_BY_STRATEGY = {
    "fixed_step": {"lipschitz_x": 1},
    "exact_min": {"lipschitz_x": 1, "exact_min_x": 1},
    "backtracking": {},
}

SEEDS = range(3)

# All oracle calls of each solve below, one entry per seed.
TOTAL_CALLS = {
    ("tight_quadratic", "fixed_step"): (6, 6, 6),
    ("tight_quadratic", "exact_min"): (7, 7, 7),
    ("tight_quadratic", "backtracking"): (7, 7, 7),
    ("coupled_quadratic", "fixed_step"): (258, 222, 270),
    ("coupled_quadratic", "exact_min"): (83, 111, 90),
    ("coupled_quadratic", "backtracking"): (334, 123, 374),
    ("matrix_factorization", "fixed_step"): (1205, 306, 1205),
    ("matrix_factorization", "exact_min"): (76, 104, 153),
    ("matrix_factorization", "backtracking"): (1007, 337, 1007),
    ("two_block_rosenbrock", "backtracking"): (1014, 1015, 1014),
}


class CountingObjective(Objective):
    """Forwards every oracle to ``inner`` and logs the kind of each call in order."""

    def __init__(self, inner):
        self.inner = inner
        self.n_x = inner.n_x
        self.n_y = inner.n_y
        self.log = []

    def _call(self, kind, arg):
        self.log.append(kind)
        return getattr(self.inner, kind)(arg)

    def value(self, p):
        return self._call("value", p)

    def grad_x(self, p):
        return self._call("grad_x", p)

    def grad_y(self, p):
        return self._call("grad_y", p)

    def exact_min_x(self, y):
        return self._call("exact_min_x", y)

    def exact_min_y(self, x):
        return self._call("exact_min_y", x)

    def lipschitz_x(self, y):
        return self._call("lipschitz_x", y)

    def lower_bound(self):
        return self.inner.lower_bound()


def split_at_grad_x(log):
    """[setup, iterate 0, iterate 1, ...]: each iterate's segment starts at its grad_x."""
    segments = [[]]
    for kind in log:
        if kind == "grad_x":
            segments.append([])
        segments[-1].append(kind)
    return [Counter(seg) for seg in segments]


def without_empty_y_block(counts, n_y):
    if n_y:
        return counts
    drop = {"grad_y": 1, "exact_min_y": 1, "value": 1}
    return {k: v - drop.get(k, 0) for k, v in counts.items() if v - drop.get(k, 0)}


def extra_trials(res, params):
    """Trials beyond the accepted one per backtracking step, read off the carried estimate.

    A step that moves the estimate up by growth^k made k rejected trials
    first. The first step may also calibrate down: e_0 = l_init * growth^-k
    took k + 2 trials (its first, k accepted lower ones and one rejected),
    or k + 1 when that reaches max_rejects + 1 trials. It tries lower only
    when its first trial passed and not only through the tolerance, so an
    e_0 of l_init costs one extra (rejected) trial then and none otherwise.
    """
    rejects, prev = [], params.l_init
    for t, rec in enumerate(res.history):
        k = round(math.log(rec.e_t / prev, params.growth))
        assert prev * params.growth**k == rec.e_t, "estimate did not move by a power of the growth"
        if t == 0 and k <= 0:
            if k < 0 or rec.gx_norm_sq / (2.0 * prev) > res.check_tol:
                k = -k + (-k < params.max_rejects)
        rejects.append(k)
        prev = rec.e_t
    return rejects


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("family,strategy", ALL_COMBOS)
def test_oracle_calls_per_iteration_are_pinned(family, strategy, seed):
    inner = zoo_problem(family, seed=seed)
    obj = CountingObjective(inner)
    cfg = SolverConfig(x_strategy=strategy, max_iters=200)
    res = solve(obj, zoo_start(inner, 1000 + seed), cfg)
    assert res.stop_reason in (StopReason.GRAD_TOL, StopReason.MAX_ITERS)
    assert res.iterations > 0

    setup, *iterates = split_at_grad_x(obj.log)
    assert setup == Counter(without_empty_y_block(SETUP, inner.n_y))

    if res.stop_reason is StopReason.GRAD_TOL:
        assert iterates.pop() == Counter({"grad_x": 1})
    assert len(iterates) == res.iterations

    per_step = {**PER_ITERATION, **PER_ITERATION_BY_STRATEGY[strategy]}
    rejects = (
        extra_trials(res, cfg.backtrack)
        if strategy == "backtracking"
        else [0] * res.iterations
    )
    for t, (got, extra) in enumerate(zip(iterates, rejects)):
        want = dict(without_empty_y_block(per_step, inner.n_y))
        want["value"] += extra
        assert got == Counter(want), f"iteration {t}"
    assert len(obj.log) == TOTAL_CALLS[family, strategy][seed]


@pytest.mark.parametrize("family", ["coupled_quadratic", "matrix_factorization"])
def test_baseline_evaluates_each_iterate_once(family):
    inner = zoo_problem(family, seed=1)
    obj = CountingObjective(inner)
    res = solve_gd_baseline(obj, zoo_start(inner, 1), step=1e-3, max_iters=40)
    assert res.stop_reason is StopReason.MAX_ITERS
    # the start and every one of the 40 iterates: one value, grad_x, grad_y each
    assert Counter(obj.log) == Counter({"value": 41, "grad_x": 41, "grad_y": 41})
