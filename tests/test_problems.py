import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bcdcert.errors import (
    InvalidDimensions,
    MissingExactMinimizer,
    NonFiniteValue,
    SingularSystem,
    UnknownFamily,
)
from bcdcert.numerics import fd_check_gradients
from bcdcert.problem import BlockPoint
from bcdcert.problems import (
    FAMILY_NAMES,
    CoupledQuadratic,
    LipschitzOverride,
    MatrixFactorization,
    ProblemSpec,
    TightQuadratic,
    TwoBlockRosenbrock,
    joint_solve_oracle,
    make_problem,
    random_start,
)
from bcdcert.solver import SolverConfig, solve
from bcdcert.strategies import BacktrackParams, stationary_y

from conftest import zoo_problem


class TestTightQuadratic:
    def setup_method(self):
        self.obj = TightQuadratic(4.0, [1.0], [4.0])

    def test_hand_values(self):
        # f(x) = 4(x-1) + 2(x-1)^2: f(3) = 8 + 8 = 16, grad(3) = 4 + 8 = 12
        assert self.obj.value(BlockPoint([3.0])) == 16.0
        np.testing.assert_array_equal(self.obj.grad_x(BlockPoint([3.0])), [12.0])

    def test_minimizer_and_lower_bound_agree(self):
        xstar = self.obj.exact_min_x(np.zeros(0))
        np.testing.assert_allclose(xstar, [0.0])
        assert self.obj.value(BlockPoint(xstar)) == self.obj.lower_bound() == -2.0

    def test_declared_lipschitz(self):
        assert self.obj.lipschitz_x(np.zeros(0)) == 4.0

    def test_empty_y_block(self):
        assert self.obj.n_y == 0
        assert self.obj.grad_y(BlockPoint([3.0])).shape == (0,)

    def test_constructor_validation(self):
        with pytest.raises(InvalidDimensions):
            TightQuadratic(0.0, [1.0], [1.0])
        with pytest.raises(InvalidDimensions):
            TightQuadratic(1.0, [1.0, 2.0], [1.0])


class TestCoupledQuadratic:
    def test_hand_values_1d(self):
        obj = CoupledQuadratic([[1.0]], [[1.0]], [[2.0]])
        p = BlockPoint([1.0], [-0.5])
        # 0.5*1 + 1*(-0.5) + 0.5*2*0.25 = 0.25
        assert obj.value(p) == 0.25
        np.testing.assert_allclose(obj.grad_x(p), [0.5])
        np.testing.assert_allclose(obj.grad_y(p), [0.0])

    def test_exact_minimizers_zero_their_gradient(self):
        obj = zoo_problem("coupled_quadratic", seed=11)
        rng = np.random.default_rng(11)
        x = rng.standard_normal(obj.n_x)
        y = rng.standard_normal(obj.n_y)
        ystar = obj.exact_min_y(x)
        assert np.linalg.norm(obj.grad_y(BlockPoint(x, ystar))) < 1e-12
        xstar = obj.exact_min_x(y)
        assert np.linalg.norm(obj.grad_x(BlockPoint(xstar, y))) < 1e-12

    def test_lipschitz_is_lambda_max_of_A(self):
        obj = zoo_problem("coupled_quadratic", seed=4)
        want = np.linalg.eigvalsh(obj.A)[-1]
        assert obj.lipschitz_x(np.zeros(obj.n_y)) == pytest.approx(want, rel=1e-14)

    def test_joint_solve_matches_dense_oracle(self):
        obj = zoo_problem("coupled_quadratic", seed=2)
        opt = joint_solve_oracle(obj)
        H = obj.joint_hessian()
        z = np.linalg.solve(H, -np.concatenate([obj.a, obj.c]))
        np.testing.assert_allclose(np.concatenate([opt.x, opt.y]), z, atol=1e-12)
        assert obj.lower_bound() == pytest.approx(obj.value(opt))

    def test_joint_solve_rejects_singular_hessian(self):
        obj = CoupledQuadratic([[0.0]], [[0.0]], [[1.0]])
        with pytest.raises(SingularSystem):
            joint_solve_oracle(obj)
        assert obj.lower_bound() is None
        with pytest.raises(MissingExactMinimizer):
            obj.exact_min_x(np.zeros(1))

    def test_constructor_validation(self):
        with pytest.raises(InvalidDimensions):
            CoupledQuadratic([[1.0, 2.0], [0.0, 1.0]], [[1.0], [1.0]], [[1.0]])
        with pytest.raises(InvalidDimensions):
            CoupledQuadratic([[1.0]], [[1.0]], [[-1.0]])


class TestMatrixFactorization:
    def setup_method(self):
        self.A = np.array([[1.0, 2.0], [3.0, 4.0]])
        self.obj = MatrixFactorization(self.A, rank=1)

    def test_hand_value(self):
        X = np.array([[1.0], [1.0]])
        Y = np.array([[1.0, 1.0]])
        p = BlockPoint(X.ravel(), Y.ravel())
        R = self.A - X @ Y
        assert self.obj.value(p) == pytest.approx(0.5 * np.sum(R * R))

    @pytest.mark.parametrize("seed", range(5))
    def test_gradients_match_finite_differences(self, seed):
        obj = zoo_problem("matrix_factorization", seed=seed)
        p = random_start(obj, seed)
        assert fd_check_gradients(obj, p).max_rel_err <= 1e-6

    def test_block_minimizers_zero_their_gradient(self):
        obj = zoo_problem("matrix_factorization", seed=1)
        p = random_start(obj, 1)
        ystar = obj.exact_min_y(p.x)
        assert np.linalg.norm(obj.grad_y(p.with_y(ystar))) < 1e-10
        xstar = obj.exact_min_x(p.y)
        assert np.linalg.norm(obj.grad_x(p.with_x(xstar))) < 1e-10

    def test_rank_deficiency_is_refused(self):
        with pytest.raises(MissingExactMinimizer):
            self.obj.exact_min_y(np.zeros(self.obj.n_x))
        with pytest.raises(MissingExactMinimizer):
            self.obj.exact_min_x(np.zeros(self.obj.n_y))

    def test_lipschitz_pads_sigma_max_squared(self):
        y = np.array([2.0, -1.0])
        lip = self.obj.lipschitz_x(y)
        sig_sq = np.linalg.norm(y.reshape(1, 2), 2) ** 2
        assert sig_sq < lip <= sig_sq * (1 + 3e-8)

    def test_constructor_validation(self):
        with pytest.raises(InvalidDimensions):
            MatrixFactorization(self.A, rank=0)
        with pytest.raises(InvalidDimensions):
            MatrixFactorization(self.A, rank=3)

    def test_lower_bound_reachable_when_rank_suffices(self):
        obj = MatrixFactorization(np.outer([1.0, 2.0], [3.0, 4.0]), rank=1)
        assert obj.lower_bound() == 0.0


class TestTwoBlockRosenbrock:
    def setup_method(self):
        self.obj = TwoBlockRosenbrock(scale=100.0)

    def test_hand_values(self):
        p = BlockPoint([-1.0], [2.0])
        # (1-(-1))^2 + 100 (2-1)^2 = 4 + 100
        assert self.obj.value(p) == 104.0
        np.testing.assert_allclose(self.obj.grad_x(p), [-4.0 - 400.0 * (-1.0)])
        np.testing.assert_allclose(self.obj.grad_y(p), [200.0])

    def test_exact_min_y_is_x_squared(self):
        np.testing.assert_allclose(self.obj.exact_min_y(np.array([3.0])), [9.0])

    def test_no_lipschitz_oracle(self):
        assert self.obj.lipschitz_x(np.array([0.0])) is None

    def test_global_minimum(self):
        assert self.obj.value(BlockPoint([1.0], [1.0])) == 0.0
        assert self.obj.lower_bound() == 0.0

    @pytest.mark.parametrize("seed", range(3))
    def test_gradients_match_finite_differences(self, seed):
        p = random_start(self.obj, seed)
        assert fd_check_gradients(self.obj, p).max_rel_err <= 1e-6

    def test_scale_validation(self):
        with pytest.raises(InvalidDimensions):
            TwoBlockRosenbrock(scale=0.0)


def numpy_scalar_rosenbrock(scale, x, y):
    """The Rosenbrock oracles on numpy float64 scalars, as the reference.

    Returns (value, grad_x, grad_y, exact_min_y) as floats, inf where an
    intermediate overflows.
    """
    x, y = np.float64(x), np.float64(y)
    with np.errstate(over="ignore", invalid="ignore"):
        return (
            float((1.0 - x) ** 2 + scale * (y - x * x) ** 2),
            float(-2.0 * (1.0 - x) - 4.0 * scale * x * (y - x * x)),
            float(2.0 * scale * (y - x * x)),
            float(x ** 2),
        )


def bits(v):
    return np.float64(v).tobytes()


# Beyond about 1.34e154 a square overflows, beyond about 4.5e305 so does
# 4 * scale * x: the magnitudes run past both edges.
EDGE = 1.7976931348623157e308
magnitudes = st.floats(min_value=-EDGE, max_value=EDGE, allow_nan=False)


class TestRosenbrockOracleBits:
    """The float oracles give the bits of the numpy-scalar formulas.

    The first four examples are points where ``d * d`` and ``d ** 2`` round
    apart for one of the squares (of 1 - x, of y - x^2, or of x near the
    overflow edge and near the underflow edge), so a square written as a
    product fails here. The last two square into subnormals and past the
    overflow edge.
    """

    @settings(max_examples=300, deadline=None)
    @given(x=magnitudes, y=magnitudes, scale=st.sampled_from([1.0, 100.0, 3.7e5]))
    @example(x=3.2625860333589527, y=10.644467625068906, scale=100.0)
    @example(x=3.2625860333589527, y=-0.0032524048410331164, scale=100.0)
    @example(x=4.469232197829273e153, y=0.0, scale=1.0)
    @example(x=1.6079436544104143e-150, y=0.0, scale=100.0)
    @example(x=1e-160, y=1e-161, scale=100.0)  # squares below the normal range
    @example(x=1e200, y=0.0, scale=100.0)
    def test_match_numpy_scalar_formulas(self, x, y, scale):
        obj = TwoBlockRosenbrock(scale)
        p = BlockPoint([x], [y])
        got = (
            obj.value(p),
            obj.grad_x(p).item(),
            obj.grad_y(p).item(),
            obj.exact_min_y(p.x).item(),
        )
        want = numpy_scalar_rosenbrock(scale, x, y)
        assert list(map(bits, got)) == list(map(bits, want)), (got, want)


def test_rosenbrock_exact_min_y_overflow_is_non_finite_value():
    # x^2 overflows: a NonFiniteValue from the y block's check, not a bare
    # OverflowError from the oracle
    obj = TwoBlockRosenbrock(100.0)
    with pytest.raises(NonFiniteValue, match="y contains NaN/Inf entries"):
        stationary_y(obj, BlockPoint([1e200], [0.0]), 1.0, 1e-10, 1e-10, BacktrackParams())


@pytest.mark.parametrize("y_tol", [None, 1e-10])
def test_rosenbrock_overflow_ends_solve_without_a_warning(y_tol):
    # y_tol=None asks grad_y first, a given y_tol asks value first
    obj = TwoBlockRosenbrock(100.0)
    cfg = SolverConfig(x_strategy="backtracking", y_tol=y_tol)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = solve(obj, BlockPoint([1e200], [0.0]), cfg)
    assert isinstance(res.error, NonFiniteValue)
    assert res.iterations == 0
    assert math.isnan(res.certificate.f0)


class TestLipschitzOverride:
    def test_delegates_everything_but_the_constant(self):
        inner = TightQuadratic(4.0, [1.0], [4.0])
        wrapped = LipschitzOverride(inner, 2.0)
        p = BlockPoint([3.0])
        assert wrapped.value(p) == inner.value(p)
        np.testing.assert_array_equal(wrapped.grad_x(p), inner.grad_x(p))
        assert wrapped.lipschitz_x(np.zeros(0)) == 2.0
        np.testing.assert_allclose(wrapped.exact_min_x(np.zeros(0)), [0.0])
        assert wrapped.lower_bound() == inner.lower_bound()
        assert (wrapped.n_x, wrapped.n_y) == (inner.n_x, inner.n_y)

    def test_rejects_nonpositive_constant(self):
        with pytest.raises(InvalidDimensions):
            LipschitzOverride(TightQuadratic(4.0, [1.0], [4.0]), 0.0)


class TestFactory:
    def test_family_names_are_stable(self):
        assert set(FAMILY_NAMES) == {
            "tight_quadratic",
            "coupled_quadratic",
            "matrix_factorization",
            "two_block_rosenbrock",
        }

    def test_unknown_family(self):
        with pytest.raises(UnknownFamily):
            make_problem(ProblemSpec("nonexistent"))

    def test_same_spec_same_instance_data(self):
        s = ProblemSpec("coupled_quadratic", seed=13, params={"n_x": 5, "n_y": 2})
        a = make_problem(s)
        b = make_problem(s)
        assert np.array_equal(a.A, b.A)
        assert np.array_equal(a.B, b.B)
        assert np.array_equal(a.a, b.a)

    def test_different_seeds_differ(self):
        a = make_problem(ProblemSpec("coupled_quadratic", seed=0))
        b = make_problem(ProblemSpec("coupled_quadratic", seed=1))
        assert not np.array_equal(a.A, b.A)

    def test_random_joint_hessian_is_pd(self):
        for seed in range(10):
            obj = make_problem(ProblemSpec("coupled_quadratic", seed=seed))
            lam = np.linalg.eigvalsh(obj.joint_hessian())
            assert lam[0] > 0

    def test_invalid_dimensions_surface(self):
        with pytest.raises(InvalidDimensions):
            make_problem(ProblemSpec("coupled_quadratic", params={"n_x": 0, "n_y": 2}))
        with pytest.raises(InvalidDimensions):
            make_problem(ProblemSpec("matrix_factorization", params={"m": 0}))

    def test_random_start_matches_dimensions(self):
        obj = make_problem(ProblemSpec("matrix_factorization"))
        p = random_start(obj, 3)
        assert (p.n_x, p.n_y) == (obj.n_x, obj.n_y)
        assert p == random_start(obj, 3)

    def test_mf_lipschitz_never_below_true_sigma_sq(self):
        # the padded oracle must stay an upper bound for random y
        obj = make_problem(ProblemSpec("matrix_factorization"))
        rng = np.random.default_rng(0)
        for _ in range(20):
            y = rng.standard_normal(obj.n_y)
            true = np.linalg.norm(y.reshape(obj.rank, obj.n), 2) ** 2
            assert obj.lipschitz_x(y) >= true

    @pytest.mark.parametrize(
        "Y",
        [
            np.random.default_rng(7).standard_normal((2, 3)),
            np.random.default_rng(8).standard_normal((3, 5)) * 1e3,
            np.zeros((2, 3)),
            # orthonormal rows scaled by 3: both singular values are 3
            3.0 * np.linalg.qr(np.random.default_rng(9).standard_normal((4, 2)))[0].T,
            np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
            np.array([[2.0, -1.0], [-1.0, 2.0]]),
        ],
        ids=["random", "large", "zero", "repeated-scaled", "repeated-unit", "symmetric"],
    )
    def test_mf_lipschitz_is_padded_sigma_sq(self, Y):
        r, n = Y.shape
        obj = MatrixFactorization(np.ones((4, n)), r)
        lip = obj.lipschitz_x(Y.ravel())
        true = np.linalg.norm(Y, 2) ** 2
        assert lip >= true
        assert lip == pytest.approx(true, rel=1e-7)
