import numpy as np
import pytest

from bcdcert.errors import DegenerateRegion, DimensionMismatch, NonFiniteValue
from bcdcert.numerics import fd_check_gradients, probe_lipschitz_x
from bcdcert.problem import BlockPoint
from bcdcert.problems import CoupledQuadratic, TightQuadratic

from conftest import ZOO_PARAMS, BreaksAtCall, zoo_problem


def _random_coupled(seed):
    return zoo_problem("coupled_quadratic", seed=seed)


# --- finite differences ---------------------------------------------------


@pytest.mark.parametrize("seed", range(10))
def test_fd_matches_analytic_gradients_on_quadratics(seed):
    # Central differences are exact (up to roundoff) on quadratics: the
    # truncation term involves the third derivative, which is zero.
    obj = _random_coupled(seed)
    rng = np.random.default_rng(seed)
    p = BlockPoint(rng.standard_normal(obj.n_x), rng.standard_normal(obj.n_y))
    rep = fd_check_gradients(obj, p)
    assert rep.max_rel_err <= 1e-8


def test_fd_names_the_corrupted_coordinate():
    base = _random_coupled(3)

    class Corrupted(CoupledQuadratic):
        def grad_x(self, p):
            g = super().grad_x(p)
            g[1] += 1.0
            return g

    bad = Corrupted(base.A, base.B, base.C, base.a, base.c)
    rep = fd_check_gradients(bad, BlockPoint(np.ones(4), np.ones(3)))
    assert rep.max_rel_err > 1e-3
    assert rep.worst_index == ("x", 1)


def test_fd_handles_empty_y_block():
    obj = TightQuadratic(4.0, [1.0, -2.0], [4.0, 0.0])
    rep = fd_check_gradients(obj, BlockPoint([0.5, 0.5]))
    assert rep.max_rel_err <= 1e-8
    assert rep.worst_index[0] == "x"


def test_fd_explicit_step_is_honored():
    obj = _random_coupled(0)
    p = BlockPoint(np.ones(obj.n_x), np.ones(obj.n_y))
    probes = []

    class Recording(CoupledQuadratic):
        def value(self, q):
            probes.append(np.concatenate([q.x, q.y]))
            return super().value(q)

    rep = fd_check_gradients(Recording(obj.A, obj.B, obj.C, obj.a, obj.c), p, h=1e-6)
    # every coordinate is probed at exactly +h and -h, the default step being 1e-5
    base = np.ones(obj.n_x + obj.n_y)
    assert np.array_equal(probes, [q for e in 1e-6 * np.eye(base.size) for q in (base + e, base - e)])
    assert rep.max_rel_err <= 1e-6


@pytest.mark.parametrize(
    "kind,wrong_size,error",
    [
        ("grad_x", False, NonFiniteValue),
        ("grad_y", True, DimensionMismatch),
        ("value", True, DimensionMismatch),
    ],
)
def test_fd_refuses_a_broken_oracle(kind, wrong_size, error):
    # a NaN gradient once came back with max_rel_err ~ 6e-12, and a gradient
    # of the wrong size with an IndexError or a silent pass
    bad = BreaksAtCall(_random_coupled(3), kind, 1, wrong_size)
    with pytest.raises(error):
        fd_check_gradients(bad, BlockPoint(np.ones(4), np.ones(3)))


def test_lipschitz_probe_refuses_a_nan_gradient():
    bad = BreaksAtCall(_random_coupled(3), "grad_x", 1, wrong_size=False)
    with pytest.raises(NonFiniteValue):
        probe_lipschitz_x(bad, np.zeros(3), (-1.0, 1.0), samples=10)


# --- Lipschitz probe --------------------------------------------------------


@pytest.mark.parametrize("seed", range(5))
def test_probe_is_a_lower_estimate_of_lambda_max(seed):
    obj = _random_coupled(seed)
    lam = np.linalg.eigvalsh(obj.A)
    y = np.zeros(obj.n_y)
    probe = probe_lipschitz_x(obj, y, (-2.0, 2.0), samples=100, seed=seed)
    # secant ratios of a linear map lie between the extreme eigenvalues
    assert probe <= lam[-1] * (1 + 1e-12)
    assert probe >= lam[0] * (1 - 1e-12)


def test_probe_is_exact_on_scalar_block():
    obj = TightQuadratic(4.0, [1.0], [4.0])
    probe = probe_lipschitz_x(obj, np.zeros(0), (-3.0, 3.0), samples=50, seed=1)
    assert probe == pytest.approx(4.0, rel=1e-12)


def test_probe_certifies_a_lying_oracle():
    # declared L half the truth: the probe must exceed it decisively
    obj = TightQuadratic(4.0, [1.0], [4.0])
    lie = 2.0
    probe = probe_lipschitz_x(obj, np.zeros(0), (-3.0, 3.0), samples=50, seed=1)
    assert probe > lie * (1 + 1e-6)


def test_probe_rejects_degenerate_region():
    obj = _random_coupled(0)
    with pytest.raises(DegenerateRegion):
        probe_lipschitz_x(obj, np.zeros(obj.n_y), (1.0, 1.0))


def test_probe_requires_two_samples():
    obj = _random_coupled(0)
    with pytest.raises(ValueError):
        probe_lipschitz_x(obj, np.zeros(obj.n_y), (-1.0, 1.0), samples=1)


def test_probe_refuses_a_negative_seed_by_name():
    # numpy's own refusal, "expected non-negative integer", named no argument
    obj = _random_coupled(0)
    with pytest.raises(ValueError, match=r"^seed must be non-negative, got -1$"):
        probe_lipschitz_x(obj, np.zeros(obj.n_y), (-1.0, 1.0), seed=-1)


def test_probe_is_deterministic():
    obj = _random_coupled(2)
    y = np.zeros(obj.n_y)
    a = probe_lipschitz_x(obj, y, (-2.0, 2.0), samples=60, seed=9)
    b = probe_lipschitz_x(obj, y, (-2.0, 2.0), samples=60, seed=9)
    assert a == b

