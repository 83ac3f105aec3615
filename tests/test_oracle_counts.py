"""Oracle calls per iteration, pinned exactly for every bundled family x strategy.

A counting wrapper logs every oracle call in order. ``solve`` calls grad_x
exactly once per iterate, so the log splits at each grad_x into a setup
segment and one segment per iteration (plus a lone grad_x when the run stops
on grad_tol). Each segment must hold exactly the calls pinned below.

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
# each rejected backtracking trial adds one more. The y-solve calls
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


def rejected_trials(history, l_init):
    """Rejections per backtracking step, read off the doubling of the carried estimate."""
    rejects, prev = [], l_init
    for rec in history:
        k = round(math.log2(rec.e_t / prev))
        assert prev * 2.0**k == rec.e_t, "estimate did not move by a power of the growth"
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
        rejected_trials(res.history, cfg.backtrack.l_init)
        if strategy == "backtracking"
        else [0] * res.iterations
    )
    for t, (got, extra) in enumerate(zip(iterates, rejects)):
        want = dict(without_empty_y_block(per_step, inner.n_y))
        want["value"] += extra
        assert got == Counter(want), f"iteration {t}"


@pytest.mark.parametrize("family", ["coupled_quadratic", "matrix_factorization"])
def test_baseline_evaluates_each_iterate_once(family):
    inner = zoo_problem(family, seed=1)
    obj = CountingObjective(inner)
    res = solve_gd_baseline(obj, zoo_start(inner, 1), step=1e-3, max_iters=40)
    assert res.stop_reason is StopReason.MAX_ITERS
    # the start and every one of the 40 iterates: one value, grad_x, grad_y each
    assert Counter(obj.log) == Counter({"value": 41, "grad_x": 41, "grad_y": 41})
