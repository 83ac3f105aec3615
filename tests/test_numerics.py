import numpy as np
import pytest

from bcdcert import numerics
from bcdcert.errors import DegenerateRegion, DimensionMismatch, NonFiniteValue
from bcdcert.numerics import DIRECTIONS, fd_check_gradients, probe_lipschitz_x, run_oracle_checks
from bcdcert.problem import BlockPoint, Objective
from bcdcert.problems import FAMILY_NAMES, CoupledQuadratic, ProblemSpec, TightQuadratic, make_problem, random_start

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


# --- the check's gradient policy ---------------------------------------------


class WrongGradients(Objective):
    """``inner``'s value, with both gradients passed through ``wrong(block, g, p)``; no optional oracles."""

    def __init__(self, inner, wrong):
        self.inner, self.wrong = inner, wrong
        self.n_x, self.n_y = inner.n_x, inner.n_y

    def value(self, p):
        return self.inner.value(p)

    def grad_x(self, p):
        return self.wrong("x", np.array(self.inner.grad_x(p)), p)

    def grad_y(self, p):
        return self.wrong("y", np.array(self.inner.grad_y(p)), p)


@pytest.mark.parametrize(
    "family,params,gradient_values,minimizer_values,minimizer_grads",
    [
        # 12 800 when every one of the 8 points was scanned
        ("matrix_factorization", {"m": 60, "n": 40, "r": 8}, 1656, 15, 10),
        ("two_block_rosenbrock", {"scale": 100.0}, 60, 10, 5),  # exact_min_y only
        ("tight_quadratic", ZOO_PARAMS["tight_quadratic"], 34, 10, 5),  # no y block
    ],
)
def test_check_scans_only_the_first_point_of_an_honest_oracle(
    family, params, gradient_values, minimizer_values, minimizer_grads
):
    # 2 (n_x + n_y) values for the scan at the first point, then 2 per
    # direction and block at each other point; the minimizer checks add f
    # once at each of 5 points and once at each block minimizer, and read
    # the gradient only at the minimizers: the gradient check holds the
    # others. The Lipschitz probe reads 2 x-gradients per sample.
    obj = make_problem(ProblemSpec(family, seed=1, params=dict(params)))
    calls, grads = [], []
    value, grad_x, grad_y = obj.value, obj.grad_x, obj.grad_y
    obj.value = lambda p: calls.append(p) or value(p)
    obj.grad_x = lambda p: grads.append(p) or grad_x(p)
    obj.grad_y = lambda p: grads.append(p) or grad_y(p)
    passed, _ = run_oracle_checks(obj, points=8, seed=1)
    blocks = (obj.n_x > 0) + (obj.n_y > 0)
    assert gradient_values == 2 * (obj.n_x + obj.n_y) + 2 * DIRECTIONS * blocks * (8 - 1)
    assert passed and len(calls) == gradient_values + minimizer_values
    probes = 3 * 100 * 2 if family != "two_block_rosenbrock" else 0
    assert len(grads) == 2 * 8 + minimizer_grads + probes


@pytest.mark.parametrize("k", [0.1, 0.01, 10.0])
@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_check_fails_a_scaled_gradient(family, k):
    bad = WrongGradients(zoo_problem(family), lambda block, g, p: k * g)
    passed, payload = run_oracle_checks(bad, points=8, seed=0)
    assert not passed and payload["checks"][0]["status"] == "fail"


@pytest.mark.parametrize(
    "family,params,block,index,error",
    [
        ("coupled_quadratic", {"n_x": 4, "n_y": 3}, "x", 2, 0.5),
        ("matrix_factorization", {"m": 30, "n": 20, "r": 5}, "y", 17, 1e-4),
    ],
)
def test_check_scans_a_point_whose_directions_disagree(family, params, block, index, error):
    # the corruption is absent at the first point, whose scan passes, so only
    # a directional probe at a later point can send the check to a scan there
    obj = make_problem(ProblemSpec(family, seed=3, params=params))
    first = random_start(obj, 3)

    def corrupt(b, g, p):
        if b == block and not (np.array_equal(p.x, first.x) and np.array_equal(p.y, first.y)):
            g[index] += error
        return g

    bad = WrongGradients(obj, corrupt)
    assert fd_check_gradients(bad, first).max_rel_err <= 1e-6
    passed, payload = run_oracle_checks(bad, points=8, seed=3)
    fd = payload["checks"][0]
    assert not passed and fd["status"] == "fail"
    assert fd["worst_coordinate"] == [block, index]


def test_honest_zoo_passes_with_one_scan(monkeypatch):
    scans = []
    scan = numerics._scan
    monkeypatch.setattr(numerics, "_scan", lambda *args: scans.append(args) or scan(*args))
    for family in ZOO_PARAMS:
        for seed in range(10):
            scans.clear()
            passed, payload = run_oracle_checks(zoo_problem(family, seed), points=8, seed=seed)
            assert passed, (family, seed, payload)
            assert len(scans) == 1, (family, seed)


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

