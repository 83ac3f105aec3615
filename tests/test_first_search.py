"""Each block's first line search of a run calibrates below ``l_init``.

When the first trial at ``l_init`` passes the decrease test, and not only
through the tolerance, that search keeps trying ``l_init / growth^k`` while
the test passes, within ``max_rejects + 1`` trials, and keeps the smallest
estimate that passed. Every later search only grows the estimate. The pins
below may only ever be lowered; the counts before this calibration are
given for reference.
"""

import math

import numpy as np
import pytest

from bcdcert.audit import check_tol_for
from bcdcert.problem import BlockPoint, Objective, evaluate
from bcdcert.problems import CoupledQuadratic, MatrixFactorization, TightQuadratic
from bcdcert.solver import SolverConfig, StopReason, solve
from bcdcert import solver, strategies
from bcdcert.strategies import BacktrackParams, backtracking_gradient_x

from conftest import zoo_problem, zoo_start
from test_oracle_counts import CountingObjective
from test_validation_counts import NoExactY


def at(obj, p):
    f, gx, _ = evaluate(obj, p)
    return f, gx, float(gx @ gx), check_tol_for(f)


def certified(res):
    return res.error is None and res.stop_reason is StopReason.GRAD_TOL and res.certificate.passed()


# --- low curvature: l_init = 1 overestimates the block constant --------------


def test_low_curvature_quadratic_calibrates_on_its_first_step():
    # l = 0.05: every step 1/L with L >= l passes, so from l_init = 1 the
    # search halves to 0.0625 and rejects 0.03125. Without the calibration
    # every step accepted e_t = 1, and the run took 434 iterations.
    obj = TightQuadratic(0.05, [1.0, -2.0, 0.5], [4.0, 0.0, -2.0])
    res = solve(obj, BlockPoint([3.0, 1.0, -1.0]), SolverConfig(x_strategy="backtracking"))
    assert certified(res)
    e_0 = res.history[0].e_t
    assert 0.05 <= e_0 < 0.1
    assert all(rec.e_t == e_0 for rec in res.history)
    assert res.iterations == 14
    assert res.certificate.e_max == e_0


def _mf_instance(seed, m=30, n=20, r=5):
    """A target with a fixed spectrum, 3 to 1.5 over its first r singular values
    and 0.3 to 0.05 beyond, in random bases; and a random start."""
    rng = np.random.default_rng(seed)

    def haar(k):
        q, upper = np.linalg.qr(rng.standard_normal((k, k)))
        return q * np.sign(np.diag(upper))

    k = min(m, n)
    spectrum = np.concatenate([np.linspace(3.0, 1.5, r), np.linspace(0.3, 0.05, k - r)])
    target = (haar(m)[:, :k] * spectrum) @ haar(n)[:, :k].T
    start = BlockPoint(rng.standard_normal(m * r), rng.standard_normal(r * n))
    return MatrixFactorization(target, r), start


# (iterations, oracle calls); without the calibration they were
# (298, 1496), (350, 1756) and (507, 2541), each with e_max = 1.
MF_PINS = {5: (43, 227), 6: (45, 235), 7: (62, 320)}


@pytest.mark.parametrize("seed", sorted(MF_PINS))
def test_matrix_factorization_backtracking_is_pinned(seed):
    inner, start = _mf_instance(seed)
    obj = CountingObjective(inner)
    res = solve(obj, start, SolverConfig(x_strategy="backtracking", grad_tol=1e-8, max_iters=5000))
    assert certified(res)
    assert (res.iterations, len(obj.log)) == MF_PINS[seed]
    assert res.certificate.e_max < 1.0


def _flat_coupled():
    """The seed-1 coupled quadratic with f scaled by 0.01: both block constants below 0.1."""
    base = zoo_problem("coupled_quadratic", seed=1)
    return CoupledQuadratic(*(0.01 * m for m in (base.A, base.B, base.C, base.a, base.c)))


# Oracle calls without the calibration; each run was certified.
SCALED_COUPLED_CALLS = {"fixed_step": 19340, "backtracking": 307447}


@pytest.mark.parametrize("strategy", sorted(SCALED_COUPLED_CALLS))
def test_flat_coupled_quadratic_without_exact_y_is_cheap(strategy):
    # each y-solve runs the y line search, which started each step at 1 before
    inner = _flat_coupled()
    obj = NoExactY(inner)
    res = solve(obj, zoo_start(inner, 1), SolverConfig(x_strategy=strategy))
    assert certified(res)
    assert 10 * len(obj.log) <= SCALED_COUPLED_CALLS[strategy]


# Oracle calls from y*(x0), where the initial y-solve searches nothing. When
# only a search inside that solve could calibrate, the y block's first search
# never did, and these runs made 17 888 and 21 846 calls, 16-17 times as many
# as from 1e-3 off y*(x0).
AT_Y_STAR_CALLS = {"fixed_step": 1031, "backtracking": 1235}


@pytest.mark.parametrize("strategy", sorted(AT_Y_STAR_CALLS))
def test_the_first_y_search_calibrates_wherever_it_falls(strategy):
    inner = _flat_coupled()
    x0 = zoo_start(inner, 1).x
    y_star = inner.exact_min_y(x0)
    calls = {}
    for offset in (0.0, 1e-3):
        obj = NoExactY(inner)
        res = solve(obj, BlockPoint(x0, y_star + offset), SolverConfig(x_strategy=strategy))
        assert certified(res)
        calls[offset] = len(obj.log)
    assert calls[0.0] == AT_Y_STAR_CALLS[strategy]
    assert abs(calls[0.0] - calls[1e-3]) <= 0.05 * calls[1e-3]


# --- how far the descent goes ------------------------------------------------


class _LinearInX(Objective):
    """f = x: every step passes the decrease test, so only the cap stops the descent."""

    n_x, n_y = 1, 0

    def value(self, p):
        return float(p.x[0])

    def grad_x(self, p):
        return np.array([1.0])

    def grad_y(self, p):
        return np.zeros(0)


@pytest.mark.parametrize("max_rejects", [1, 5, 60])
def test_descent_stops_after_max_rejects_plus_one_trials(max_rejects):
    obj, p = _LinearInX(), BlockPoint([0.0])
    params = BacktrackParams(l_init=1.0, growth=2.0, max_rejects=max_rejects)
    upd = backtracking_gradient_x(obj, p, *at(obj, p), params)
    assert upd.inner_evals == max_rejects + 1
    assert upd.e_t == 2.0**-max_rejects
    np.testing.assert_array_equal(upd.point.x, [-(2.0**max_rejects)])
    assert upd.f_next == -(2.0**max_rejects)


def test_descent_returns_the_smallest_estimate_that_passed():
    # l = 0.05 from l_init = 1: trials at 1, 1/2, ..., 1/16 pass, 1/32 fails
    obj, p = TightQuadratic(0.05, [0.0], [1.0]), BlockPoint([2.0])
    upd = backtracking_gradient_x(obj, p, *at(obj, p), BacktrackParams())
    assert upd.e_t == 1.0 / 16 and upd.inner_evals == 4 + 2
    later = backtracking_gradient_x(obj, p, *at(obj, p), BacktrackParams(), 1.0)
    assert later.e_t == 1.0 and later.inner_evals == 1


# --- a first trial that is rejected or vacuous: the search as before ---------


@pytest.mark.parametrize(
    "obj,x",
    [
        (TightQuadratic(4.0, [1.0], [4.0]), 3.0),  # trials at 1 and 2 rejected
        (TightQuadratic(0.05, [0.0], [1.0]), -20.0 + 1e-6),  # g^2 / 2 under tol
    ],
    ids=["rejected", "vacuous"],
)
def test_calibration_changes_nothing_unless_the_first_trial_is_informative(obj, x):
    p = BlockPoint([x])
    f, gx, g_sq, tol = at(obj, p)
    params = BacktrackParams()
    first = backtracking_gradient_x(obj, p, f, gx, g_sq, tol, params)
    plain = backtracking_gradient_x(obj, p, f, gx, g_sq, tol, params, params.l_init)
    assert first.inner_evals == plain.inner_evals
    assert first.e_t == plain.e_t and first.f_next == plain.f_next
    np.testing.assert_array_equal(first.point.x, plain.point.x)
    if g_sq / (2.0 * params.l_init) <= tol:
        assert plain.inner_evals == 1 and plain.e_t == params.l_init
    else:
        assert plain.e_t > params.l_init


@pytest.mark.parametrize("side,calibrates", [("above", True), ("tie", False), ("below", False)])
def test_the_first_trial_calibrates_only_when_informative_beyond_the_tolerance(side, calibrates):
    # g = 1 at x = 0 and l = 0.5: trials at l_init = 1 and at 1/2 pass, 1/4
    # fails. tol puts g^2 / (2 l_init) one ulp above it, on it or one ulp below.
    obj, p = TightQuadratic(0.5, [0.0], [1.0]), BlockPoint([0.0])
    f, gx, g_sq, _ = at(obj, p)
    on = g_sq / 2.0
    tol = {"above": math.nextafter(on, 0.0), "tie": on, "below": math.nextafter(on, math.inf)}[side]
    upd = backtracking_gradient_x(obj, p, f, gx, g_sq, tol, BacktrackParams())
    assert (upd.e_t, upd.inner_evals) == ((0.5, 3) if calibrates else (1.0, 1))


def _from_l_init(update, n_before):
    """``update`` given ``l_init`` as the estimate wherever its block carries none.

    ``n_before`` is the number of arguments before ``params``.
    """
    def wrapped(*args):
        params, carried = args[n_before], args[n_before + 1:]
        l_hat = carried[0] if carried and carried[0] is not None else params.l_init
        return update(*args[:n_before], params, l_hat)
    return wrapped


def solve_without_calibration(monkeypatch, obj, start, cfg):
    """``solve`` with every search of the run made from a carried estimate."""
    monkeypatch.setattr(
        solver, "backtracking_gradient_x", _from_l_init(strategies.backtracking_gradient_x, 6)
    )
    monkeypatch.setattr(solver, "stationary_y", _from_l_init(strategies.stationary_y, 5))
    res = solve(obj, start, cfg)
    monkeypatch.undo()
    return res


def _near_stationary_tight():
    obj = TightQuadratic(0.05, [0.0, 1.0], [1.0, -1.0])
    return obj, BlockPoint(obj.exact_min_x(None) + 1e-6)


@pytest.mark.parametrize(
    "case",
    [
        # l = 4 > l_init: the first x trial is rejected
        lambda: (zoo_problem("tight_quadratic"), zoo_start(zoo_problem("tight_quadratic")), True),
        lambda: (zoo_problem("two_block_rosenbrock"), BlockPoint([-2.0], [4.0]), True),
        # the first x trial passes, but only through the tolerance
        lambda: (*_near_stationary_tight(), True),
        # y without exact_min_y, C's curvature above l_init: the first y trial is rejected
        lambda: (NoExactY(zoo_problem("coupled_quadratic", seed=2)),
                 zoo_start(zoo_problem("coupled_quadratic", seed=2), 2), False),
    ],
    ids=["x-rejected", "rosenbrock", "x-vacuous", "y-rejected"],
)
def test_a_rejected_or_vacuous_first_trial_leaves_the_history_as_before(monkeypatch, case):
    obj, start, backtracking = case()
    cfg = SolverConfig(x_strategy="backtracking" if backtracking else "fixed_step", max_iters=300)
    before = solve_without_calibration(monkeypatch, obj, start, cfg)
    res = solve(obj, start, cfg)
    assert res.iterations > 0 and res.certificate.passed()
    assert res.history == before.history
    np.testing.assert_array_equal(res.final.x, before.final.x)
    np.testing.assert_array_equal(res.final.y, before.final.y)


def test_low_curvature_run_before_the_calibration(monkeypatch):
    obj = TightQuadratic(0.05, [1.0, -2.0, 0.5], [4.0, 0.0, -2.0])
    cfg = SolverConfig(x_strategy="backtracking")
    before = solve_without_calibration(monkeypatch, obj, BlockPoint([3.0, 1.0, -1.0]), cfg)
    assert certified(before)
    assert before.iterations == 434 and before.certificate.e_max == 1.0
