import math
from array import array

import numpy as np
import pytest

from bcdcert.audit import RAW_FIELDS
from bcdcert.errors import (
    DimensionMismatch,
    MissingLipschitzOracle,
    NonFiniteValue,
    SufficientDecreaseViolated,
)
from bcdcert.problem import BlockPoint, Objective
from bcdcert.problems import (
    CoupledQuadratic,
    LipschitzOverride,
    TightQuadratic,
    joint_solve_oracle,
)
from bcdcert.solver import (
    RunResult,
    SolverConfig,
    StopReason,
    _append_row,
    solve,
    solve_gd_baseline,
)
from bcdcert.traceio import History

from conftest import ALL_COMBOS, BreaksAtCall, zoo_problem, zoo_start
from test_fold import fold_history


def test_worked_chain_is_reproduced_exactly():
    obj = CoupledQuadratic([[1.0]], [[1.0]], [[2.0]])
    res = solve(obj, BlockPoint([1.0], [0.0]), SolverConfig(max_iters=2))
    assert res.stop_reason is StopReason.MAX_ITERS
    assert [r.f_before for r in res.history] == [0.25, 0.0625]
    assert [r.f_after_y for r in res.history] == [0.0625, 0.015625]
    assert res.certificate.running_sum == 0.15625
    assert res.certificate.rate_bound == 0.234375
    assert res.certificate.passed()
    np.testing.assert_allclose(res.final.x, [0.25])
    np.testing.assert_allclose(res.final.y, [-0.125])


def test_start_at_the_minimizer_stops_immediately():
    obj = zoo_problem("coupled_quadratic", seed=3)
    opt = joint_solve_oracle(obj)
    res = solve(obj, opt, SolverConfig(grad_tol=1e-8))
    assert res.stop_reason is StopReason.GRAD_TOL
    assert res.iterations == 0
    assert res.certificate.passed()
    assert math.isnan(res.certificate.rate_bound)
    assert res.final == opt or np.allclose(
        np.concatenate([res.final.x, res.final.y]),
        np.concatenate([opt.x, opt.y]),
    )


def test_tightness_one_step_convergence():
    # from any start the 1/L step lands on the vertex; decrease is exactly
    # ||g||^2/(2L)
    obj = TightQuadratic(4.0, [1.0], [4.0])
    start = BlockPoint([2.0])  # anchor + unit direction of g
    res = solve(obj, start, SolverConfig(grad_tol=1e-12, max_iters=10))
    assert res.stop_reason is StopReason.GRAD_TOL
    assert res.iterations == 1
    r = res.history[0]
    decrease = r.f_before - r.f_after_x
    assert decrease == pytest.approx(r.gx_norm_sq / (2 * 4.0), rel=1e-12)
    np.testing.assert_allclose(res.final.x, [0.0], atol=1e-15)


def test_determinism_bitwise():
    obj = zoo_problem("matrix_factorization", seed=2)
    cfg = SolverConfig(x_strategy="backtracking", max_iters=40, seed=9)
    a = solve(obj, zoo_start(obj, 9), cfg)
    b = solve(obj, zoo_start(obj, 9), cfg)
    assert len(a.history) == len(b.history)
    for ra, rb in zip(a.history, b.history):
        assert (ra.f_before, ra.f_after_x, ra.f_after_y) == (
            rb.f_before,
            rb.f_after_x,
            rb.f_after_y,
        )
        assert (ra.gx_norm_sq, ra.gy_residual, ra.e_t, ra.suff_ok) == (
            rb.gx_norm_sq,
            rb.gy_residual,
            rb.e_t,
            rb.suff_ok,
        )


@pytest.mark.parametrize("family,strategy", ALL_COMBOS)
def test_invariants_across_the_zoo(family, strategy):
    obj = zoo_problem(family, seed=1)
    cfg = SolverConfig(x_strategy=strategy, max_iters=60, seed=4)
    res = solve(obj, zoo_start(obj, 4), cfg)
    assert res.stop_reason in (StopReason.GRAD_TOL, StopReason.MAX_ITERS)
    assert res.certificate.passed()
    assert res.init_y_residual <= res.y_tol
    fs = [res.certificate.f0]
    for r in res.history:
        # measured gradients always taken at a y-stationary point
        assert r.gy_residual <= res.y_tol
        # f never increases across half-steps
        assert r.f_after_x <= r.f_before + res.check_tol
        assert r.f_after_y <= r.f_after_x + res.check_tol
        fs.append(r.f_after_y)
    assert all(b <= a + res.check_tol for a, b in zip(fs, fs[1:]))


def test_history_chain_is_exact():
    obj = zoo_problem("coupled_quadratic", seed=5)
    res = solve(obj, zoo_start(obj, 5), SolverConfig(max_iters=30))
    for prev, cur in zip(res.history, res.history[1:]):
        assert cur.f_before == prev.f_after_y  # bitwise carry


def test_refold_reproduces_the_certificate():
    obj = zoo_problem("coupled_quadratic", seed=6)
    res = solve(obj, zoo_start(obj, 6), SolverConfig(max_iters=25))
    history = History.from_records(list(res.history))
    suff_ok, _, _, cert = fold_history(history)
    assert cert == res.certificate
    assert list(suff_ok) == res.history.suff_ok.tolist() == [r.suff_ok for r in res.history]
    assert history == res.history


def test_missing_oracle_surfaces_as_error_result():
    obj = zoo_problem("two_block_rosenbrock")
    res = solve(obj, BlockPoint([-1.0], [1.0]), SolverConfig(x_strategy="fixed_step"))
    assert res.stop_reason is StopReason.ERROR
    assert isinstance(res.error, MissingLipschitzOracle)
    assert res.certificate.invalidated
    assert not res.certificate.passed()
    assert res.history == []


def test_lying_constant_is_caught_at_step_zero():
    obj = LipschitzOverride(TightQuadratic(4.0, [1.0], [4.0]), 2.0)
    res = solve(obj, BlockPoint([3.0]), SolverConfig())
    assert res.stop_reason is StopReason.ERROR
    assert isinstance(res.error, SufficientDecreaseViolated)
    assert res.certificate.invalidated


class _WalledBowl(Objective):
    """0.5||x||^2 that turns NaN once f would drop below 0.1."""

    n_x, n_y = 1, 0

    def value(self, p):
        f = 0.5 * float(p.x[0] ** 2)
        return f if f >= 0.1 else float("nan")

    def grad_x(self, p):
        return p.x.copy()

    def grad_y(self, p):
        return np.zeros(0)

    def lipschitz_x(self, y):
        return 2.0  # twice the true curvature: iterates halve each step

    def exact_min_y(self, x):
        return np.zeros(0)


def test_partial_history_is_kept_on_mid_run_error():
    # x: 2 -> 1 -> 0.5, then the trial at 0.25 hits the NaN wall
    res = solve(_WalledBowl(), BlockPoint([2.0]), SolverConfig(max_iters=50))
    assert res.stop_reason is StopReason.ERROR
    assert isinstance(res.error, NonFiniteValue)
    assert len(res.history) == 2
    assert res.certificate.invalidated
    assert res.certificate.num_steps == 2


def test_oracle_failure_at_a_later_iterate_returns_partial_history():
    # grad_x is called once per iterate, so the third call measures iterate 2:
    # two steps are done and recorded when the oracle breaks
    inner = zoo_problem("coupled_quadratic", seed=3)
    obj = BreaksAtCall(inner, "grad_x", 3, wrong_size=False)
    res = solve(obj, zoo_start(inner, 3), SolverConfig(max_iters=50))
    assert res.stop_reason is StopReason.ERROR
    assert isinstance(res.error, NonFiniteValue)
    assert res.certificate.invalidated and not res.certificate.passed()
    assert len(res.history) == res.certificate.num_steps == 2
    assert all(r.suff_ok for r in res.history)
    assert res.history[1].f_before == res.history[0].f_after_y
    assert res.certificate.f_final == res.history[1].f_after_y
    clean = solve(inner, zoo_start(inner, 3), SolverConfig(max_iters=2))
    assert res.history == clean.history
    assert res.final == clean.final


class _BadAfterYSolve(CoupledQuadratic):
    """Finite everywhere except the value at exact y-minimizers after the first."""

    def __init__(self, base, what):
        super().__init__(base.A, base.B, base.C, base.a, base.c)
        self.what = what
        self.solves = 0

    def exact_min_y(self, x):
        self.solves += 1
        return super().exact_min_y(x)

    def value(self, p):
        f = super().value(p)
        return float("nan") if self.what == "value" and self.solves >= 2 else f

    def grad_y(self, p):
        g = super().grad_y(p)
        return g[:-1] if self.what == "grad_y" and self.solves >= 2 else g


@pytest.mark.parametrize("what,error", [("value", NonFiniteValue), ("grad_y", DimensionMismatch)])
def test_bad_oracle_after_the_y_solve_is_an_error_result(what, error):
    base = zoo_problem("coupled_quadratic", seed=4)
    res = solve(_BadAfterYSolve(base, what), zoo_start(base, 4), SolverConfig(max_iters=20))
    assert res.stop_reason is StopReason.ERROR
    assert isinstance(res.error, error)
    assert res.history == [] and res.certificate.invalidated


def test_non_finite_start_value_is_an_error_result():
    res = solve(_WalledBowl(), BlockPoint([0.1]), SolverConfig())
    assert res.stop_reason is StopReason.ERROR
    assert isinstance(res.error, NonFiniteValue)
    assert res.history == [] and res.certificate.invalidated


class _NoExactY(BreaksAtCall):
    """Hides ``exact_min_y``, so the y block is solved by the y line search."""

    def exact_min_y(self, x):
        return None


class _HugeStartGradY(CoupledQuadratic):
    """Its first grad_y has finite entries whose norm overflows."""

    def __init__(self, base):
        super().__init__(base.A, base.B, base.C, base.a, base.c)
        self.calls = 0

    def grad_y(self, p):
        self.calls += 1
        return np.full(self.n_y, 1e200) if self.calls == 1 else super().grad_y(p)


def test_nan_grad_y_at_the_start_is_an_error_result():
    # the first grad_y call resolves y_tol; a NaN there used to become
    # y_tol = 1e-10 and the run came back certified
    base = zoo_problem("coupled_quadratic", seed=3)
    obj = BreaksAtCall(base, "grad_y", 1, wrong_size=False)
    res = solve(obj, zoo_start(base, 3), SolverConfig(max_iters=20))
    assert res.stop_reason is StopReason.ERROR
    assert isinstance(res.error, NonFiniteValue)
    assert res.history == [] and not res.certificate.passed()


def test_overflowing_start_gradient_norm_falls_back_to_unit_scale():
    base = zoo_problem("coupled_quadratic", seed=3)
    obj = _HugeStartGradY(base)
    res = solve(obj, zoo_start(base, 3), SolverConfig(max_iters=5))
    assert res.y_tol == 1e-10
    assert res.error is None


@pytest.mark.parametrize(
    "strategy,exact_y,fail_at",
    [
        ("fixed_step", True, 1),  # f at the start point
        ("fixed_step", True, 2),  # f after the initial y-solve
        ("backtracking", True, 3),  # the first backtracking trial
        ("fixed_step", False, 2),  # the first y line-search trial
    ],
    ids=["start", "after-y-solve", "backtrack-trial", "inner-descent-trial"],
)
def test_vector_value_is_a_dimension_error_result(strategy, exact_y, fail_at):
    base = zoo_problem("coupled_quadratic", seed=3)
    obj = (BreaksAtCall if exact_y else _NoExactY)(base, "value", fail_at, wrong_size=True)
    res = solve(obj, zoo_start(base, 3), SolverConfig(x_strategy=strategy, max_iters=20))
    assert obj.calls >= fail_at
    assert res.stop_reason is StopReason.ERROR
    assert isinstance(res.error, DimensionMismatch)
    assert "expected a scalar" in str(res.error)
    assert not res.certificate.passed()


def test_backtracking_estimate_never_shrinks_across_iterations():
    obj = zoo_problem("two_block_rosenbrock")
    res = solve(
        obj,
        BlockPoint([-2.0], [4.0]),
        SolverConfig(x_strategy="backtracking", max_iters=200),
    )
    es = [r.e_t for r in res.history]
    assert all(b >= a for a, b in zip(es, es[1:]))
    assert res.certificate.passed()


def test_grad_tol_is_evaluated_on_the_full_gradient():
    obj = zoo_problem("coupled_quadratic", seed=8)
    res = solve(obj, zoo_start(obj, 8), SolverConfig(grad_tol=1e-6, max_iters=5000))
    assert res.stop_reason is StopReason.GRAD_TOL
    gx = obj.grad_x(res.final)
    gy = obj.grad_y(res.final)
    assert math.sqrt(float(gx @ gx + gy @ gy)) <= 1e-6


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(x_strategy="newton")
    with pytest.raises(ValueError):
        SolverConfig(max_iters=0)
    with pytest.raises(ValueError):
        SolverConfig(grad_tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(y_tol=-1.0)
    with pytest.raises(ValueError, match="^seed must be non-negative$"):
        SolverConfig(seed=-1)


def test_run_result_iteration_count():
    obj = zoo_problem("coupled_quadratic", seed=0)
    res = solve(obj, zoo_start(obj, 0), SolverConfig(max_iters=7))
    assert isinstance(res, RunResult)
    assert res.iterations == len(res.history) <= 7
    assert res.wall_time >= 0.0


def test_resolved_tolerances_are_recorded():
    obj = zoo_problem("coupled_quadratic", seed=0)
    res = solve(obj, zoo_start(obj, 0), SolverConfig(max_iters=3))
    assert res.check_tol == 1e-10 * max(1.0, abs(res.certificate.f0))
    assert res.y_tol > 0
    explicit = solve(obj, zoo_start(obj, 0), SolverConfig(max_iters=3, y_tol=1e-7))
    assert explicit.y_tol == 1e-7


# --- baseline ---------------------------------------------------------------


def test_baseline_monotone_with_a_safe_step():
    obj = zoo_problem("coupled_quadratic", seed=2)
    lam_max = float(np.linalg.eigvalsh(obj.joint_hessian())[-1])
    res = solve_gd_baseline(obj, zoo_start(obj, 2), step=1.0 / lam_max, max_iters=100)
    assert res.stop_reason is StopReason.MAX_ITERS
    fs = [res.certificate.f0] + [r.f_after_y for r in res.history]
    # monotone up to float roundoff near the floor
    assert all(b <= a + 1e-12 * max(1.0, abs(a)) for a, b in zip(fs, fs[1:]))


def test_baseline_diverges_with_a_block_only_step():
    # step sized for the x block alone (1/lambda_max(A) = 1) is far beyond
    # 2/lambda_max(H) when C has eigenvalues near 100: the first step raises
    # f, and the run stops there, as solve() does on a too-small declared L
    obj = CoupledQuadratic(np.eye(2), np.zeros((2, 2)), 100.0 * np.eye(2))
    res = solve_gd_baseline(obj, BlockPoint([1.0, 1.0], [1.0, 1.0]), 1.0, 200)
    assert res.stop_reason is StopReason.ERROR
    assert isinstance(res.error, SufficientDecreaseViolated)
    assert "declared L=1;" in str(res.error)
    assert res.iterations == 0 and res.certificate.invalidated


def test_baseline_whose_gradient_norm_overflows_ends_on_an_error():
    # ||grad||^2 = 1e400 overflows to inf, so the first step's required
    # decrease is inf: the run returns with stop_reason = ERROR at that test
    obj = TightQuadratic(4.0, [1.0], [1e200])
    res = solve_gd_baseline(obj, BlockPoint([1.0], []), 1e-300, 3)
    assert res.stop_reason is StopReason.ERROR
    assert isinstance(res.error, SufficientDecreaseViolated)
    assert str(res.error).startswith("decrease 0 < required inf with declared L=1e+300")
    assert res.iterations == 0 and res.certificate.invalidated


class _SwappedBlockSizes(Objective):
    """Gradients of the right joint size, (1 + 2), but of the wrong block sizes."""

    n_x, n_y = 2, 1

    def value(self, p):
        return float(p.x @ p.x + p.y @ p.y)

    def grad_x(self, p):
        return 2.0 * p.x[:1]

    def grad_y(self, p):
        return np.concatenate((2.0 * p.x[1:], 2.0 * p.y))


def test_baseline_refuses_a_block_gradient_of_the_wrong_size():
    res = solve_gd_baseline(_SwappedBlockSizes(), BlockPoint([1.0, 2.0], [3.0]), 0.1, 5)
    assert res.stop_reason is StopReason.ERROR
    assert isinstance(res.error, DimensionMismatch)
    assert str(res.error) == "grad_x has size 1, expected 2"
    assert res.iterations == 0 and res.certificate.invalidated


@pytest.mark.parametrize("mode", ["fixed_step", "backtracking", "baseline"])
@pytest.mark.parametrize("big", [1e160, 1e200, 1e300])
@pytest.mark.parametrize("family", ["tight_quadratic", "coupled_quadratic", "matrix_factorization"])
def test_numpy_overflow_in_an_oracle_is_an_error_result_not_a_warning(family, big, mode):
    # these oracles compute on numpy arrays, which warn on overflow; the
    # solver turns the inf or NaN into NonFiniteValue, and nothing else
    # reaches the caller (the test run makes any RuntimeWarning an error)
    obj = zoo_problem(family, seed=0)
    start = BlockPoint(np.full(obj.n_x, big), np.full(obj.n_y, big))
    before = np.geterr()
    if mode == "baseline":
        res = solve_gd_baseline(obj, start, 1e-3, 5)
    else:
        res = solve(obj, start, SolverConfig(x_strategy=mode, max_iters=5))
    assert np.geterr() == before
    assert res.stop_reason is StopReason.ERROR
    assert isinstance(res.error, NonFiniteValue)
    assert res.iterations == 0 and res.certificate.invalidated


ROW = (3.0, 2.0, 1.5, 4.0, 1e-12, 8.0)


@pytest.mark.parametrize("field", ["gx_norm_sq", "gy_residual", "e_t"])
def test_append_row_refuses_a_non_finite_field(field):
    # only these three fields can overflow; the row is not appended
    row = list(ROW)
    row[RAW_FIELDS.index(field)] = math.inf
    rows = array("d", ROW)
    with pytest.raises(NonFiniteValue, match=r"^record 1 has non-finite fields$"):
        _append_row(rows, 1, tuple(row))
    assert rows == array("d", ROW)


@pytest.mark.parametrize("row", [ROW, (1.0, 1.0, 1.0, 1e308, 1e308, 1e308)])
def test_append_row_appends_a_finite_row_unchanged(row):
    # the second row's checked fields are finite though their sum is not
    rows = array("d", ROW)
    _append_row(rows, 1, row)
    assert rows == array("d", ROW + row)


def test_baseline_comparison_is_reportable_not_asserted():
    # same start: both traces exist and are monotone; BCD's per-iteration
    # f-gap is printed for inspection, never asserted as a guarantee
    obj = zoo_problem("coupled_quadratic", seed=4)
    start = zoo_start(obj, 4)
    lam_max = float(np.linalg.eigvalsh(obj.joint_hessian())[-1])
    bcd = solve(obj, start, SolverConfig(max_iters=30))
    gd = solve_gd_baseline(obj, start, step=1.0 / lam_max, max_iters=30)
    assert bcd.certificate.passed()
    assert gd.iterations == 30
    print(
        f"f after 30 iters: bcd={bcd.certificate.f_final:.6g} "
        f"gd={gd.certificate.f_final:.6g}"
    )


def test_baseline_rejects_bad_arguments():
    obj = zoo_problem("coupled_quadratic", seed=0)
    for step in (-0.5, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="^step must be finite and positive$"):
            solve_gd_baseline(obj, zoo_start(obj, 0), step=step, max_iters=5)
    with pytest.raises(ValueError, match="^max_iters must be at least 1$"):
        solve_gd_baseline(obj, zoo_start(obj, 0), step=0.1, max_iters=0)


def test_baseline_checks_the_start_before_joining_its_blocks():
    # (3, 4) joins to the 7 entries of a (4, 3) point, and is still refused
    obj = zoo_problem("coupled_quadratic", seed=0)
    assert (obj.n_x, obj.n_y) == (4, 3)
    with pytest.raises(DimensionMismatch):
        solve_gd_baseline(obj, BlockPoint(np.ones(3), np.ones(4)), step=0.1, max_iters=5)
