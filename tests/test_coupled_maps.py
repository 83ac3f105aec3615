"""CoupledQuadratic's cached minimizer maps and joint-Hessian value.

The maps K_y x + k_y and K_x y + k_x, and the product with the joint Hessian,
replace a solve (or five quadratic terms) per call. These tests hold them to
the per-call arithmetic they replaced: the same minimizers to 1e-12, the same
order of residual on an ill-conditioned C, the same value to a few ulps, and
the same iteration counts on the zoo. The maps are built on first use only.
"""

import sys
import threading

import numpy as np
import pytest

from bcdcert.errors import MissingExactMinimizer
from bcdcert.problem import BlockPoint
from bcdcert.problems import CoupledQuadratic, ProblemSpec, make_problem
from bcdcert.solver import SolverConfig, solve

from conftest import zoo_problem, zoo_start

SHAPES = [(4, 3), (40, 30)]


def coupled(seed, n_x, n_y):
    return make_problem(ProblemSpec("coupled_quadratic", seed=seed, params={"n_x": n_x, "n_y": n_y}))


def rel_err(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


@pytest.mark.parametrize("n_x,n_y", SHAPES)
@pytest.mark.parametrize("seed", range(10))
def test_minimizers_match_a_solve_per_call(seed, n_x, n_y):
    obj = coupled(seed, n_x, n_y)
    rng = np.random.default_rng(seed)
    for _ in range(5):
        x, y = rng.standard_normal(n_x), rng.standard_normal(n_y)
        assert rel_err(obj.exact_min_y(x), np.linalg.solve(obj.C, -(obj.B.T @ x + obj.c))) <= 1e-12
        assert rel_err(obj.exact_min_x(y), np.linalg.solve(obj.A, -(obj.B @ y + obj.a))) <= 1e-12


@pytest.mark.parametrize("cond", [1e2, 1e6])
def test_minimizer_residual_on_an_ill_conditioned_c_keeps_its_order(cond):
    # C with eigenvalues 1 ... cond in a random basis: the map's residual
    # ||grad_y|| at the minimizer stays within 10x of a solve per call
    rng = np.random.default_rng(0)
    n_x, n_y = 40, 30
    Q = np.linalg.qr(rng.standard_normal((n_y, n_y)))[0]
    C = (Q * np.logspace(0.0, np.log10(cond), n_y)) @ Q.T
    obj = CoupledQuadratic(10.0 * np.eye(n_x), rng.standard_normal((n_x, n_y)), 0.5 * (C + C.T),
                           rng.standard_normal(n_x), rng.standard_normal(n_y))
    mapped, solved = [], []
    for _ in range(20):
        x = rng.standard_normal(n_x)
        y_solve = np.linalg.solve(obj.C, -(obj.B.T @ x + obj.c))
        mapped.append(np.linalg.norm(obj.grad_y(BlockPoint(x, obj.exact_min_y(x)))))
        solved.append(np.linalg.norm(obj.grad_y(BlockPoint(x, y_solve))))
    assert max(mapped) <= 10.0 * max(solved)


@pytest.mark.parametrize("n_x,n_y", SHAPES)
@pytest.mark.parametrize("seed", range(10))
def test_value_agrees_with_the_five_terms(seed, n_x, n_y):
    # within 8 ulps of the terms' total magnitude, at scales 1e-3 ... 1e3
    obj = coupled(seed, n_x, n_y)
    rng = np.random.default_rng(seed)
    for scale in (1e-3, 1.0, 1e3):
        x, y = scale * rng.standard_normal(n_x), scale * rng.standard_normal(n_y)
        terms = [0.5 * x @ obj.A @ x, x @ obj.B @ y, 0.5 * y @ obj.C @ y, obj.a @ x, obj.c @ y]
        magnitude = sum(abs(t) for t in terms)
        value = obj.value(BlockPoint(x, y))
        assert isinstance(value, float)
        assert abs(value - sum(terms)) <= 8 * np.finfo(float).eps * magnitude


@pytest.fixture
def solves(monkeypatch):
    """Every np.linalg.solve call's arguments, in order."""
    calls = []
    solve_ = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda *a: calls.append(a) or solve_(*a))
    return calls


def test_the_maps_are_built_on_first_use(solves):
    obj = coupled(3, 4, 3)
    p = zoo_start(obj, 3)
    obj.value(p), obj.grad_x(p), obj.grad_y(p), obj.lipschitz_x(p.y)
    assert solves == []  # neither construction nor the other oracles solve
    first = obj.exact_min_y(p.x)
    assert len(solves) == 1
    assert obj.exact_min_y(p.x).tobytes() == first.tobytes() and len(solves) == 1
    obj.exact_min_x(p.y), obj.exact_min_x(p.y)
    assert len(solves) == 2


def test_a_singular_a_builds_no_x_map(solves):
    obj = CoupledQuadratic([[0.0]], [[1.0]], [[2.0]])
    for _ in range(2):
        with pytest.raises(MissingExactMinimizer, match="A is not positive definite"):
            obj.exact_min_x(np.zeros(1))
    assert solves == []


def test_the_instance_owns_its_matrices():
    # the cached maps cannot go stale: a caller's arrays are copied, and the
    # instance's own are read-only
    A, B, C = 2.0 * np.eye(2), np.ones((2, 1)), np.array([[3.0]])
    obj = CoupledQuadratic(A, B, C)
    x, y = np.ones(2), np.ones(1)
    before = obj.exact_min_y(x), obj.exact_min_x(y), obj.value(BlockPoint(x, y)), obj.grad_y(BlockPoint(x, y))
    A[:], B[:], C[:] = 0.0, 5.0, 1.0
    after = obj.exact_min_y(x), obj.exact_min_x(y), obj.value(BlockPoint(x, y)), obj.grad_y(BlockPoint(x, y))
    assert [np.asarray(v).tobytes() for v in before] == [np.asarray(v).tobytes() for v in after]
    for M in (obj.A, obj.B, obj.C):
        with pytest.raises(ValueError):
            M[0, 0] = 1.0
    H = obj.joint_hessian()  # a fresh array, as before
    H[0, 0] = 7.0
    assert obj.A[0, 0] == 2.0


# (iterations at grad_tol 1e-9) per zoo seed, for fixed_step, exact_min and
# backtracking, as a solve per call gave them
ZOO_ITERATIONS = {
    0: (42, 11, 65), 1: (36, 15, 23), 2: (44, 12, 73), 3: (70, 10, 68), 4: (41, 12, 62),
    5: (31, 16, 49), 6: (70, 13, 71), 7: (40, 18, 63), 8: (39, 17, 44), 9: (65, 10, 59),
}


@pytest.mark.parametrize("seed", range(10))
def test_zoo_runs_keep_their_iteration_counts(seed):
    obj = zoo_problem("coupled_quadratic", seed)
    start = zoo_start(obj, 1000 + seed)
    for strategy, iterations in zip(("fixed_step", "exact_min", "backtracking"), ZOO_ITERATIONS[seed]):
        res = solve(obj, start, SolverConfig(x_strategy=strategy, grad_tol=1e-9, max_iters=1500))
        assert (res.iterations, res.stop_reason.value) == (iterations, "grad_tol_met")
        assert res.certificate.passed()


def test_first_calls_from_many_threads_agree():
    # eight threads race to make the first calls on fresh instances; every
    # answer has the bits of a serial call on a twin instance
    serial = coupled(5, 40, 30)
    p = zoo_start(serial, 5)
    want = (serial.value(p), serial.exact_min_y(p.x).tobytes(), serial.exact_min_x(p.y).tobytes())
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            obj, got = coupled(5, 40, 30), []
            barrier = threading.Barrier(8, timeout=30)

            def work():
                barrier.wait()
                got.append((obj.value(p), obj.exact_min_y(p.x).tobytes(), obj.exact_min_x(p.y).tobytes()))

            threads = [threading.Thread(target=work) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
            assert got == [want] * 8
    finally:
        sys.setswitchinterval(interval)
