import math

import numpy as np
import pytest

from bcdcert.certificate import History, check_tol_for, fold, sufficient_decrease
from bcdcert.errors import (
    BacktrackExhausted,
    DimensionMismatch,
    InnerSolveFailed,
    MissingExactMinimizer,
    MissingLipschitzOracle,
    NonFiniteValue,
    SufficientDecreaseViolated,
)
from bcdcert.problem import BlockPoint, Objective, evaluate
from bcdcert.problems import (
    CoupledQuadratic,
    LipschitzOverride,
    TightQuadratic,
    TwoBlockRosenbrock,
)
from bcdcert.solver import StopReason, solve_gd_baseline
from bcdcert.strategies import (
    BacktrackParams,
    backtracking_gradient_x,
    exact_min_x,
    fixed_step_gradient_x,
    stationary_y,
)

from conftest import zoo_problem


def tight():
    return TightQuadratic(4.0, [1.0], [4.0])


def at(obj, p):
    """(f, grad_x, ||grad_x||^2, tol) at p, as the solver hands them to a strategy.

    f and grad_x are measured and checked; tol is the check tolerance of a
    run whose first value is f.
    """
    f, gx, _ = evaluate(obj, p)
    return f, gx, float(gx @ gx), check_tol_for(f)


# --- fixed step -------------------------------------------------------------


def test_fixed_step_achieves_equality_on_the_model():
    # On the exact quadratic with the exact L, the 1/L step lands on the
    # vertex and the decrease equals ||g||^2/(2L) to the last bit of algebra.
    obj = tight()
    p = BlockPoint([3.0])
    upd = fixed_step_gradient_x(obj, p, *at(obj, p))
    np.testing.assert_allclose(upd.point.x, [0.0])
    assert upd.e_t == 4.0
    assert upd.f_next == obj.value(upd.point)
    assert upd.inner_evals == 1
    decrease = obj.value(p) - obj.value(p.with_x(upd.point.x))
    need = float(obj.grad_x(p) @ obj.grad_x(p)) / (2.0 * 4.0)
    assert decrease == pytest.approx(need, rel=1e-12)


def test_fixed_step_rejects_a_lying_constant():
    # L declared at half the truth: the step doubles past the vertex and the
    # decrease on this symmetric quadratic is exactly zero.
    lying = LipschitzOverride(tight(), 2.0)
    p = BlockPoint([3.0])
    with pytest.raises(SufficientDecreaseViolated):
        fixed_step_gradient_x(lying, p, *at(lying, p))


def test_fixed_step_needs_the_oracle():
    obj, p = TwoBlockRosenbrock(), BlockPoint([0.0], [0.0])
    with pytest.raises(MissingLipschitzOracle):
        fixed_step_gradient_x(obj, p, *at(obj, p))


def test_fixed_step_accepts_overestimates():
    # a too-large constant is safe, just slower
    cautious = LipschitzOverride(tight(), 40.0)
    p = BlockPoint([3.0])
    upd = fixed_step_gradient_x(cautious, p, *at(cautious, p))
    assert upd.e_t == 40.0


@pytest.mark.parametrize("seed", range(10))
def test_fixed_step_certifies_on_random_quadratics(seed):
    obj = zoo_problem("coupled_quadratic", seed=seed)
    rng = np.random.default_rng(seed)
    p = BlockPoint(rng.standard_normal(obj.n_x), rng.standard_normal(obj.n_y))
    upd = fixed_step_gradient_x(obj, p, *at(obj, p))
    f0 = obj.value(p)
    f1 = obj.value(p.with_x(upd.point.x))
    gx = obj.grad_x(p)
    assert f0 - f1 >= float(gx @ gx) / (2 * upd.e_t) - 1e-12 * max(1, abs(f0))


# --- exact minimization -----------------------------------------------------


@pytest.mark.parametrize("seed", range(20))
def test_exact_min_dominates_fixed_step(seed):
    # the argmin can only fall lower than the 1/L trial point
    obj = zoo_problem("coupled_quadratic", seed=100 + seed)
    rng = np.random.default_rng(seed)
    p = BlockPoint(rng.standard_normal(obj.n_x), rng.standard_normal(obj.n_y))
    f0 = obj.value(p)
    d_exact = f0 - obj.value(p.with_x(exact_min_x(obj, p, *at(obj, p)).point.x))
    d_fixed = f0 - obj.value(p.with_x(fixed_step_gradient_x(obj, p, *at(obj, p)).point.x))
    assert d_exact >= d_fixed - 1e-12


def test_exact_min_reports_L_as_its_constant():
    obj = zoo_problem("coupled_quadratic", seed=0)
    p = BlockPoint(np.ones(obj.n_x), np.ones(obj.n_y))
    upd = exact_min_x(obj, p, *at(obj, p))
    assert upd.e_t == obj.lipschitz_x(p.y)
    assert upd.f_next == obj.value(upd.point)
    assert upd.inner_evals == 1


def test_exact_min_requires_both_oracles():
    obj, p = TwoBlockRosenbrock(), BlockPoint([0.0], [0.0])
    with pytest.raises(MissingLipschitzOracle):
        exact_min_x(obj, p, *at(obj, p))

    singular, p = CoupledQuadratic([[0.0]], [[0.0]], [[1.0]]), BlockPoint([1.0], [1.0])
    with pytest.raises(MissingExactMinimizer):
        exact_min_x(singular, p, *at(singular, p))


class _ArgminLiar(Objective):
    """Claims an exact minimizer but returns a non-improving point."""

    n_x, n_y = 1, 0

    def value(self, p):
        return float(p.x[0] ** 2)

    def grad_x(self, p):
        return 2.0 * p.x

    def grad_y(self, p):
        return np.zeros(0)

    def lipschitz_x(self, y):
        return 2.0

    def exact_min_x(self, y):
        return np.array([100.0])


def test_exact_min_catches_a_lying_argmin():
    obj, p = _ArgminLiar(), BlockPoint([3.0])
    with pytest.raises(SufficientDecreaseViolated):
        exact_min_x(obj, p, *at(obj, p))


class _ArgminOffTheDomain(_ArgminLiar):
    """value is NaN at the claimed minimizer; exact_min_x's size is settable."""

    def __init__(self, x_star=(100.0,), lip=2.0):
        self.x_star = np.array(x_star)
        self.lip = lip

    def value(self, p):
        return float("nan") if p.x[0] == 100.0 else float(p.x[0] ** 2)

    def lipschitz_x(self, y):
        return self.lip

    def exact_min_x(self, y):
        return self.x_star


@pytest.mark.parametrize(
    "obj,error",
    [
        (_ArgminOffTheDomain(), NonFiniteValue),
        (_ArgminOffTheDomain(x_star=(0.0, 0.0)), DimensionMismatch),
        (_ArgminOffTheDomain(x_star=(0.0,), lip=0.0), NonFiniteValue),
    ],
    ids=["nan-value", "wrong-size", "zero-lipschitz"],
)
def test_exact_min_checks_what_it_hands_back(obj, error):
    p = BlockPoint([3.0])
    with pytest.raises(error):
        exact_min_x(obj, p, *at(obj, p))


# --- backtracking -----------------------------------------------------------


def test_backtracking_doubling_chain_lands_on_L():
    # from l=1 on the L=4 model: trials at 1 and 2 both fail the test
    # (decrease -144 and 0 against requirements 72 and 36), 4 accepts with
    # decrease == requirement == 18
    obj, p = tight(), BlockPoint([3.0])
    upd = backtracking_gradient_x(obj, p, *at(obj, p), BacktrackParams())
    assert upd.e_t == 4.0
    np.testing.assert_allclose(upd.point.x, [0.0])
    assert upd.inner_evals == 3  # three trial evaluations; f and grad come in
    assert upd.f_next == obj.value(upd.point)


def test_backtracking_accepts_immediately_when_the_carried_estimate_suffices():
    obj, p = tight(), BlockPoint([3.0])
    upd = backtracking_gradient_x(obj, p, *at(obj, p), BacktrackParams(), 4.0)
    assert upd.e_t == 4.0
    assert upd.inner_evals == 1


def test_backtracking_zero_gradient_short_circuits():
    obj = tight()
    p = BlockPoint([0.0])  # the unconstrained minimizer
    f, gx, g_sq, tol = at(obj, p)
    upd = backtracking_gradient_x(obj, p, f, gx, g_sq, tol, BacktrackParams(l_init=7.0))
    np.testing.assert_array_equal(upd.point.x, p.x)
    assert upd.e_t == 7.0
    assert upd.f_next == f and upd.inner_evals == 0
    # a carried estimate is reported as it is
    carried = backtracking_gradient_x(obj, p, f, gx, g_sq, tol, BacktrackParams(l_init=7.0), 3.0)
    assert carried.e_t == 3.0 and carried.inner_evals == 0


@pytest.mark.parametrize("seed", range(10))
def test_backtracking_stays_under_twice_the_truth(seed):
    # growth 2 from l_init=1 <= L: the first estimate >= L accepts, so the
    # accepted constant is < 2L
    obj = zoo_problem("coupled_quadratic", seed=200 + seed)
    true_l = float(np.linalg.eigvalsh(obj.A)[-1])
    assert true_l >= 1.0  # the diagonally dominant construction guarantees it
    rng = np.random.default_rng(seed)
    p = BlockPoint(rng.standard_normal(obj.n_x), rng.standard_normal(obj.n_y))
    upd = backtracking_gradient_x(obj, p, *at(obj, p), BacktrackParams())
    assert upd.e_t < 2.0 * true_l


class _NeverDecreases(Objective):
    """Constant value but nonzero reported gradient: no step can certify."""

    n_x, n_y = 1, 0

    def value(self, p):
        return 1.0

    def grad_x(self, p):
        return np.array([1.0])

    def grad_y(self, p):
        return np.zeros(0)


def test_backtracking_exhaustion():
    obj, p = _NeverDecreases(), BlockPoint([0.0])
    with pytest.raises(BacktrackExhausted):
        backtracking_gradient_x(obj, p, *at(obj, p), BacktrackParams(max_rejects=5))


class _WalledQuadratic(Objective):
    """0.5 L x^2 inside |x| <= 10, +inf outside; big steps overshoot the wall."""

    n_x, n_y = 1, 0
    L = 50.0

    def value(self, p):
        x = float(p.x[0])
        if abs(x) > 10.0:
            return float("inf")
        return 0.5 * self.L * x * x

    def grad_x(self, p):
        return self.L * p.x

    def grad_y(self, p):
        return np.zeros(0)


def test_backtracking_treats_non_finite_trials_as_rejections():
    obj, p = _WalledQuadratic(), BlockPoint([9.0])
    upd = backtracking_gradient_x(obj, p, *at(obj, p), BacktrackParams())
    assert np.isfinite(obj.value(BlockPoint(upd.point.x)))
    assert upd.e_t > 1.0  # at least one overshooting trial was rejected


def test_backtrack_params_validation():
    with pytest.raises(ValueError):
        BacktrackParams(l_init=0.0)
    with pytest.raises(ValueError):
        BacktrackParams(growth=1.0)
    with pytest.raises(ValueError):
        BacktrackParams(max_rejects=0)


# --- one decrease test -------------------------------------------------------
#
# Declared just below the true l = 4 of tight(), a constant L' makes the
# step from x = 3 fall short of its bound ||g||^2 / (2 L') by a known amount:
# ||g||^2 (l - L') / (2 L'^2) for the 1/L' gradient step, and
# ||g||^2 (l - L') / (2 l L') for the exact minimizer. Short by less than tol,
# the strategy accepts the step and the certificate's step check certifies
# it; short by more, both refuse it.


def _declared_short_by(shortfall, exact):
    g_sq, l = 144.0, 4.0  # ||grad_x||^2 and L of tight() at x = 3
    if exact:
        return g_sq * l / (g_sq + 2.0 * l * shortfall)
    # positive root of 2 s L'^2 + g_sq L' - g_sq l = 0, in cancellation-free form
    return 2.0 * g_sq * l / (g_sq + math.sqrt(g_sq * g_sq + 8.0 * shortfall * g_sq * l))


def _step_check(f_before, f_after_x, f_after_y, g_sq, e_t, tol):
    """The certificate's check of one recorded step at ``tol``.

    At the run's own tolerance, check_tol_for(f_before), it is fold's
    verdict on the one-row history; at another tol it is the same two tests.
    """
    ok = bool(sufficient_decrease(f_before, f_after_x, g_sq, e_t, tol) and f_after_y <= f_after_x + tol)
    if tol == check_tol_for(f_before):
        row = (f_before, f_after_x, f_after_y, g_sq, 0.0, e_t)
        assert bool(fold(History.from_rows([row]))[0][0]) is ok
    return ok


def _certified(f, f_next, g_sq, e_t, tol):
    return _step_check(f, f_next, f_next, g_sq, e_t, tol)


@pytest.mark.parametrize("tol", [check_tol_for(16.0), 1e-6], ids=["run-tol", "loose"])
@pytest.mark.parametrize("short,accepted", [(0.5, True), (2.0, False)], ids=["within", "beyond"])
@pytest.mark.parametrize("strategy", ["fixed_step", "exact_min", "backtracking"])
def test_strategy_accepts_what_the_step_check_certifies(strategy, short, accepted, tol):
    p = BlockPoint([3.0])
    lip = _declared_short_by(short * tol, exact=strategy == "exact_min")
    obj = LipschitzOverride(tight(), lip)
    f, gx, g_sq, _ = at(obj, p)
    trial = p.with_x(obj.exact_min_x(p.y) if strategy == "exact_min" else p.x - gx / lip)
    f_trial = obj.value(trial)
    assert g_sq / (2.0 * lip) - (f - f_trial) == pytest.approx(short * tol, rel=1e-3)
    assert _certified(f, f_trial, g_sq, lip, tol) is accepted

    if strategy == "backtracking":
        upd = backtracking_gradient_x(obj, p, f, gx, g_sq, tol, BacktrackParams(l_init=lip))
        assert (upd.e_t == lip) is accepted  # refused, it grows the estimate
    else:
        update = fixed_step_gradient_x if strategy == "fixed_step" else exact_min_x
        if not accepted:
            with pytest.raises(SufficientDecreaseViolated):
                update(obj, p, f, gx, g_sq, tol)
            return
        upd = update(obj, p, f, gx, g_sq, tol)
        assert upd.e_t == lip and upd.point == trial
    assert _certified(f, upd.f_next, g_sq, upd.e_t, tol)


# --- y block ----------------------------------------------------------------


def test_stationary_y_exact_path():
    obj = zoo_problem("coupled_quadratic", seed=5)
    rng = np.random.default_rng(5)
    p = BlockPoint(rng.standard_normal(obj.n_x), rng.standard_normal(obj.n_y))
    f = obj.value(p)
    q, res, f_after, gy_sq, l_hat = stationary_y(obj, p, f, 1e-10, check_tol_for(f), BacktrackParams())
    assert res <= 1e-10
    np.testing.assert_array_equal(q.x, p.x)
    assert np.linalg.norm(obj.grad_y(q)) == res
    assert gy_sq == float(obj.grad_y(q) @ obj.grad_y(q)) and math.sqrt(gy_sq) == res
    assert f_after == obj.value(q)
    assert obj.value(q) <= obj.value(p)
    # nothing was searched: the estimate given comes back
    assert l_hat is None
    *_, l_hat = stationary_y(obj, p, f, 1e-10, check_tol_for(f), BacktrackParams(), 3.0)
    assert l_hat == 3.0


def test_stationary_y_empty_block():
    obj, p = tight(), BlockPoint([3.0])
    f = obj.value(p)
    q, res, f_after, gy_sq, l_hat = stationary_y(obj, p, f, 1e-10, check_tol_for(f), BacktrackParams())
    assert q.y.shape == (0,) and res == 0.0
    assert q == p and f_after == obj.value(p) and gy_sq == 0.0
    assert l_hat is None
    *_, l_hat = stationary_y(obj, p, f, 1e-10, check_tol_for(f), BacktrackParams(), 3.0)
    assert l_hat == 3.0


class _HiddenMinimizer(CoupledQuadratic):
    """Same quadratic, exact_min_y withheld, forcing the y line search."""

    def exact_min_y(self, x):
        return None


def test_stationary_y_inner_descent_fallback():
    base = zoo_problem("coupled_quadratic", seed=6)
    obj = _HiddenMinimizer(base.A, base.B, base.C, base.a, base.c)
    p = BlockPoint(np.ones(obj.n_x), np.ones(obj.n_y))
    f = obj.value(p)
    q, res, f_after, gy_sq, l_hat = stationary_y(obj, p, f, 1e-8, check_tol_for(f), BacktrackParams())
    assert res <= 1e-8
    assert np.linalg.norm(obj.grad_y(q)) == res
    assert f_after == obj.value(q)
    assert gy_sq == float(obj.grad_y(q) @ obj.grad_y(q)) and math.sqrt(gy_sq) == res
    assert obj.value(q) <= obj.value(p)
    assert l_hat == 2.0 ** round(math.log2(l_hat)) >= BacktrackParams().l_init  # doubled from 1


class _WrongMinimizer(CoupledQuadratic):
    def exact_min_y(self, x):
        return np.ones(self.n_y) * 1e3


def test_stationary_y_rejects_a_wrong_exact_minimizer():
    base = zoo_problem("coupled_quadratic", seed=7)
    obj = _WrongMinimizer(base.A, base.B, base.C, base.a, base.c)
    p = BlockPoint(np.ones(obj.n_x), np.ones(obj.n_y))
    f = obj.value(p)
    with pytest.raises(InnerSolveFailed):
        stationary_y(obj, p, f, 1e-10, check_tol_for(f), BacktrackParams())


@pytest.mark.parametrize("short,accepted", [(0.5, True), (2.0, False)], ids=["within", "beyond"])
def test_stationary_y_allows_the_rise_the_step_check_allows(short, accepted):
    # p already has y at its minimizer, so the y-solve lands on p again; a
    # stated f_before below f(p) makes that a rise of short * tol.
    obj = zoo_problem("coupled_quadratic", seed=10)
    x = np.ones(obj.n_x)
    p = BlockPoint(x, obj.exact_min_y(x))
    tol = 1e-6
    f_before = obj.value(p) - short * tol
    assert _step_check(f_before, f_before, obj.value(p), 0.0, 1.0, tol) is accepted
    if accepted:
        assert stationary_y(obj, p, f_before, 1e-8, tol, BacktrackParams())[2] == obj.value(p)
    else:
        with pytest.raises(InnerSolveFailed):
            stationary_y(obj, p, f_before, 1e-8, tol, BacktrackParams())


def test_stationary_y_tol_validation():
    with pytest.raises(ValueError):
        stationary_y(tight(), BlockPoint([1.0]), 0.0, 0.0, 1e-10, BacktrackParams())


class _NaNMinimizer(CoupledQuadratic):
    def exact_min_y(self, x):
        return np.full(self.n_y, np.nan)


def test_stationary_y_rejects_non_finite_minimizer():
    base = zoo_problem("coupled_quadratic", seed=8)
    obj = _NaNMinimizer(base.A, base.B, base.C, base.a, base.c)
    p = BlockPoint(np.ones(obj.n_x), np.ones(obj.n_y))
    f = obj.value(p)
    with pytest.raises(NonFiniteValue):
        stationary_y(obj, p, f, 1e-10, check_tol_for(f), BacktrackParams())


class _NaNGradY(CoupledQuadratic):
    def grad_y(self, p):
        return np.full(self.n_y, np.nan)


def test_stationary_y_rejects_non_finite_grad_y():
    base = zoo_problem("coupled_quadratic", seed=9)
    obj = _NaNGradY(base.A, base.B, base.C, base.a, base.c)
    p = BlockPoint(np.ones(obj.n_x), np.ones(obj.n_y))
    f = obj.value(p)
    with pytest.raises(NonFiniteValue):
        stationary_y(obj, p, f, 1e-10, check_tol_for(f), BacktrackParams())


# --- baseline step (solve_gd_baseline) ----------------------------------------------------------


def test_one_baseline_step_is_the_joint_gradient_step_hand_check():
    # grad_x = 1+1 = 2, grad_y = 1+2 = 3; the step divides by L = 1/step
    obj = CoupledQuadratic([[1.0]], [[1.0]], [[2.0]])
    step = 0.3
    res = solve_gd_baseline(obj, BlockPoint([1.0], [1.0]), step, max_iters=1)
    assert res.stop_reason is StopReason.MAX_ITERS and res.iterations == 1
    for got, want in ((res.final.x, 1.0 - step * 2.0), (res.final.y, 1.0 - step * 3.0)):
        assert got.shape == (1,) and abs(got[0] - want) <= math.ulp(want)
    row = res.history[0]
    assert row.gx_norm_sq == 13.0 and row.gy_residual == 0.0 and row.e_t == 1.0 / step
