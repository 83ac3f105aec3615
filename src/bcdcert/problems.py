"""Bundled test problems.

Four families, each exercising a different corner of the solver:

- ``TightQuadratic``: the quadratic model on which the sufficient-decrease
  bound holds with equality; pure x block (n_y = 0).
- ``CoupledQuadratic``: convex coupled quadratic with closed-form block
  minimizers and a brute-force joint solve for ground truth.
- ``MatrixFactorization``: nonconvex ``0.5 * ||A - XY||_F^2``; only
  stationarity is claimed.
- ``TwoBlockRosenbrock``: no global Lipschitz oracle, forcing backtracking.

Instances are immutable after construction and deterministic given the same
spec and seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    InvalidDimensions,
    MissingExactMinimizer,
    SingularSystem,
    UnknownFamily,
)
from .problem import BlockPoint, Objective, as_vector


class TightQuadratic(Objective):
    """f(x) = c + g.(x - anchor) + (L/2)||x - anchor||^2, with empty y block.

    The gradient's Lipschitz constant is exactly ``l_const``, and a fixed
    1/L gradient step achieves the sufficient-decrease bound with equality.
    """

    def __init__(self, l_const: float, anchor, g_anchor, c_const: float = 0.0):
        if not l_const > 0:
            raise InvalidDimensions("l_const must be positive")
        self.l_const = float(l_const)
        self.c_const = float(c_const)
        self.anchor = as_vector(anchor, "anchor")
        self.g_anchor = as_vector(g_anchor, "g_anchor")
        if self.anchor.size != self.g_anchor.size:
            raise InvalidDimensions("anchor and g_anchor sizes differ")
        self.n_x = self.anchor.size
        self.n_y = 0

    def value(self, p: BlockPoint) -> float:
        d = p.x - self.anchor
        return float(self.c_const + self.g_anchor @ d + 0.5 * self.l_const * (d @ d))

    def grad_x(self, p: BlockPoint) -> np.ndarray:
        return self.g_anchor + self.l_const * (p.x - self.anchor)

    def grad_y(self, p: BlockPoint) -> np.ndarray:
        return np.zeros(0)

    def exact_min_y(self, x):
        return np.zeros(0)

    def exact_min_x(self, y):
        return self.anchor - self.g_anchor / self.l_const

    def lipschitz_x(self, y):
        return self.l_const

    def lower_bound(self):
        g = self.g_anchor
        return float(self.c_const - (g @ g) / (2.0 * self.l_const))


def _positive_definite(M: np.ndarray) -> bool:
    """Whether the symmetric ``M`` has a Cholesky factor."""
    try:
        np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        return False
    return True


class CoupledQuadratic(Objective):
    """f = 0.5 x'Ax + x'By + 0.5 y'Cy + a.x + c.y with A PSD, C PD.

    exact_min_y solves C y = -(B'x + c); exact_min_x solves A x = -(B y + a)
    when A is PD. lipschitz_x is the exact λ_max(A), constant in y.

    The instance owns its matrices: A, B and C are read-only views of the
    joint Hessian H = [[A, B], [B', C]], copied once in ``__init__``. They
    never change, so the solves are done once too: exact_min_y(x) is the
    affine map K_y x + k_y, with K_y = -C⁻¹B' and k_y = -C⁻¹c, and
    exact_min_x(y) is K_x y + k_x, with K_x = -A⁻¹B and k_x = -A⁻¹a. Each
    map is built on its oracle's first call, not in ``__init__``, so an
    instance that is never asked for a minimizer pays for no solve. Two
    threads making a first call at once may both build it; they build the
    same arrays, and either copy serves. value is one product with H:
    z.(0.5 H z + h), with z = (x, y) and h = (a, c).
    """

    def __init__(self, A, B, C, a=None, c=None):
        self.A = np.atleast_2d(np.asarray(A, dtype=float))
        self.C = np.atleast_2d(np.asarray(C, dtype=float))
        n_x, n_y = self.A.shape[0], self.C.shape[0]
        self.B = np.asarray(B, dtype=float).reshape(n_x, n_y)
        self.a = as_vector(a if a is not None else np.zeros(n_x), "a")
        self.c = as_vector(c if c is not None else np.zeros(n_y), "c")
        if self.A.shape != (n_x, n_x) or self.C.shape != (n_y, n_y):
            raise InvalidDimensions("A and C must be square")
        if self.a.size != n_x or self.c.size != n_y:
            raise InvalidDimensions("linear terms do not match block sizes")
        if not (np.allclose(self.A, self.A.T) and np.allclose(self.C, self.C.T)):
            raise InvalidDimensions("A and C must be symmetric")
        if not _positive_definite(self.C):
            raise InvalidDimensions("C must be positive definite")
        self.n_x, self.n_y = n_x, n_y
        self._lip_x = float(np.linalg.eigvalsh(self.A)[-1])
        # decided once: the instance is immutable, and exact_min_x needs it per call
        self._a_pd = _positive_definite(self.A)
        # owned and read-only, so no caller's array can change under the cached maps
        H = np.empty((n_x + n_y, n_x + n_y))
        H[:n_x, :n_x], H[:n_x, n_x:], H[n_x:, :n_x], H[n_x:, n_x:] = self.A, self.B, self.B.T, self.C
        H.setflags(write=False)
        self._H, self._h = H, np.concatenate((self.a, self.c))
        self.A, self.B, self.C = H[:n_x, :n_x], H[:n_x, n_x:], H[n_x:, n_x:]

    @cached_property
    def _min_y(self):
        """(K_y, k_y), both views of one solve with C."""
        S = np.linalg.solve(self.C, -np.column_stack((self.B.T, self.c)))
        return S[:, : self.n_x], S[:, self.n_x]

    @cached_property
    def _min_x(self):
        """(K_x, k_x), both views of one solve with A; only built when A is PD."""
        S = np.linalg.solve(self.A, -np.column_stack((self.B, self.a)))
        return S[:, : self.n_y], S[:, self.n_y]

    def value(self, p: BlockPoint) -> float:
        z = np.concatenate((p.x, p.y))
        # z @ (0.5 * (H @ z) + h): ``dot`` makes the same BLAS calls as ``@``
        # without its ufunc dispatch, which costs more than the product here
        return float(z.dot(0.5 * self._H.dot(z) + self._h))

    def grad_x(self, p: BlockPoint) -> np.ndarray:
        return self.A @ p.x + self.B @ p.y + self.a

    def grad_y(self, p: BlockPoint) -> np.ndarray:
        return self.B.T @ p.x + self.C @ p.y + self.c

    def exact_min_y(self, x):
        K, k = self._min_y
        return K @ x + k

    def exact_min_x(self, y):
        if not self._a_pd:
            raise MissingExactMinimizer("A is not positive definite")
        K, k = self._min_x
        return K @ y + k

    def lipschitz_x(self, y):
        return self._lip_x

    def joint_hessian(self) -> np.ndarray:
        return self._H.copy()

    def lower_bound(self):
        try:
            opt = joint_solve_oracle(self)
        except SingularSystem:
            return None
        return self.value(opt)


def joint_solve_oracle(prob: CoupledQuadratic) -> BlockPoint:
    """Ground truth for the coupled quadratic: one dense solve of the joint system.

    Solves [[A, B], [B', C]] (x, y) = -(a, c) and verifies the gradient at the
    result is below 1e-10.
    """
    H = prob.joint_hessian()
    rhs = -np.concatenate([prob.a, prob.c])
    try:
        np.linalg.cholesky(H)
        z = np.linalg.solve(H, rhs)
    except np.linalg.LinAlgError:
        raise SingularSystem("joint Hessian is not positive definite") from None
    opt = BlockPoint(z[: prob.n_x], z[prob.n_x:])
    grad = np.concatenate([prob.grad_x(opt), prob.grad_y(opt)])
    if np.linalg.norm(grad) > 1e-10:
        raise SingularSystem("joint solve residual exceeds 1e-10; system too ill-conditioned")
    return opt


class MatrixFactorization(Objective):
    """f = 0.5 * ||A - XY||_F^2; x block is X (m x r) flat, y block is Y (r x n) flat.

    Block minimizers solve the normal equations and refuse rank-deficient
    systems (no pseudo-inverse fallback: a silent least-norm solution would
    mask stationarity violations). lipschitz_x(Y) = λ_max(YY').
    """

    def __init__(self, target, rank: int):
        self.target = np.atleast_2d(np.asarray(target, dtype=float))
        m, n = self.target.shape
        if not 1 <= rank <= min(m, n):
            raise InvalidDimensions(f"rank {rank} invalid for a {m}x{n} target")
        self.m, self.n, self.rank = m, n, int(rank)
        self.n_x = m * rank
        self.n_y = rank * n

    def _X(self, x):
        return np.asarray(x).reshape(self.m, self.rank)

    def _Y(self, y):
        return np.asarray(y).reshape(self.rank, self.n)

    def value(self, p: BlockPoint) -> float:
        R = self.target - self._X(p.x) @ self._Y(p.y)
        return float(0.5 * np.sum(R * R))

    def grad_x(self, p: BlockPoint) -> np.ndarray:
        X, Y = self._X(p.x), self._Y(p.y)
        return ((X @ Y - self.target) @ Y.T).ravel()

    def grad_y(self, p: BlockPoint) -> np.ndarray:
        X, Y = self._X(p.x), self._Y(p.y)
        return (X.T @ (X @ Y - self.target)).ravel()

    def exact_min_y(self, x):
        X = self._X(x)
        gram = X.T @ X
        try:
            np.linalg.cholesky(gram)
        except np.linalg.LinAlgError:
            raise MissingExactMinimizer("X'X is rank deficient") from None
        return np.linalg.solve(gram, X.T @ self.target).ravel()

    def exact_min_x(self, y):
        Y = self._Y(y)
        gram = Y @ Y.T
        try:
            np.linalg.cholesky(gram)
        except np.linalg.LinAlgError:
            raise MissingExactMinimizer("YY' is rank deficient") from None
        return np.linalg.solve(gram, Y @ self.target.T).T.ravel()

    def lipschitz_x(self, y):
        Y = self._Y(y)
        # λ_max(YY') is the squared spectral norm of Y; the pad keeps the
        # declared constant an upper bound when eigvalsh rounds it down by a
        # few ulps, so the fixed-step decrease cannot fail on roundoff.
        return float(np.linalg.eigvalsh(Y @ Y.T)[-1]) * (1.0 + 1e-8)

    def lower_bound(self):
        return 0.0


class TwoBlockRosenbrock(Objective):
    """f(x, y) = (1 - x)^2 + scale (y - x^2)^2 with scalar blocks.

    Declares no lipschitz_x oracle (the x curvature grows with x), so only
    the backtracking strategy applies. exact_min_y(x) = x^2.
    """

    def __init__(self, scale: float = 100.0):
        if not scale > 0:
            raise InvalidDimensions("scale must be positive")
        self.scale = float(scale)
        self.n_x = 1
        self.n_y = 1

    # The oracles compute on Python floats, which give the bits numpy's
    # float64 scalars gave: the same IEEE operations, and ``**`` calls libm
    # pow in both (``d * d`` would round differently). Unlike numpy, Python
    # warns about nothing, and its ``**`` raises OverflowError where numpy
    # returned inf; inf it is, so the caller's finiteness check decides.

    def value(self, p: BlockPoint) -> float:
        x, y = p.x.item(0), p.y.item(0)
        try:
            return (1.0 - x) ** 2 + self.scale * (y - x * x) ** 2
        except OverflowError:
            return math.inf

    def grad_x(self, p: BlockPoint) -> np.ndarray:
        x, y = p.x.item(0), p.y.item(0)
        return np.array([-2.0 * (1.0 - x) - 4.0 * self.scale * x * (y - x * x)])

    def grad_y(self, p: BlockPoint) -> np.ndarray:
        x, y = p.x.item(0), p.y.item(0)
        return np.array([2.0 * self.scale * (y - x * x)])

    def exact_min_y(self, x):
        try:
            return np.array([float(x[0]) ** 2])
        except OverflowError:
            return np.array([math.inf])

    def lower_bound(self):
        return 0.0


class LipschitzOverride(Objective):
    """Wrapper substituting a user-supplied block-x Lipschitz constant.

    Exists so a deliberately wrong constant can be fed to the fixed-step
    strategy; everything else delegates to the wrapped objective.
    """

    def __init__(self, inner: Objective, l_const: float):
        if not l_const > 0:
            raise InvalidDimensions("lipschitz override must be positive")
        self.inner = inner
        self.l_const = float(l_const)
        self.n_x = inner.n_x
        self.n_y = inner.n_y

    def value(self, p):
        return self.inner.value(p)

    def grad_x(self, p):
        return self.inner.grad_x(p)

    def grad_y(self, p):
        return self.inner.grad_y(p)

    def exact_min_y(self, x):
        return self.inner.exact_min_y(x)

    def exact_min_x(self, y):
        return self.inner.exact_min_x(y)

    def lipschitz_x(self, y):
        return self.l_const

    def lower_bound(self):
        return self.inner.lower_bound()


@dataclass(frozen=True)
class ProblemSpec:
    """Deterministic recipe for a bundled problem: family + parameters + seed."""

    family: str
    seed: int = 0
    params: dict = field(default_factory=dict)


def _build_tight_quadratic(seed, params):
    l_const = float(params.get("l", 4.0))
    anchor = params.get("anchor", [0.0])
    g = params.get("g", [0.0] * np.atleast_1d(anchor).size)
    c = float(params.get("c", 0.0))
    return TightQuadratic(l_const, anchor, g, c)


def _random_joint_pd(rng, n_x, n_y):
    """Symmetric joint Hessian, diagonally dominant, hence PD (verified by Cholesky)."""
    n = n_x + n_y
    M = rng.standard_normal((n, n))
    H = 0.5 * (M + M.T)
    np.fill_diagonal(H, np.sum(np.abs(H), axis=1) - np.abs(np.diag(H)) + 1.0)
    np.linalg.cholesky(H)
    return H


def _build_coupled_quadratic(seed, params):
    if "A" in params or "C" in params:
        return CoupledQuadratic(
            params["A"], params["B"], params["C"],
            params.get("a"), params.get("c"),
        )
    n_x = int(params.get("n_x", 4))
    n_y = int(params.get("n_y", 3))
    if n_x < 1 or n_y < 1:
        raise InvalidDimensions("coupled_quadratic needs n_x >= 1 and n_y >= 1")
    rng = np.random.default_rng(seed)
    H = _random_joint_pd(rng, n_x, n_y)
    a = rng.standard_normal(n_x)
    c = rng.standard_normal(n_y)
    return CoupledQuadratic(H[:n_x, :n_x], H[:n_x, n_x:], H[n_x:, n_x:], a, c)


def _build_matrix_factorization(seed, params):
    if "target" in params:
        target = np.asarray(params["target"], dtype=float)
    else:
        m = int(params.get("m", 4))
        n = int(params.get("n", 3))
        if m < 1 or n < 1:
            raise InvalidDimensions("matrix_factorization needs m >= 1 and n >= 1")
        target = np.random.default_rng(seed).standard_normal((m, n))
    r = int(params.get("r", min(2, min(target.shape))))
    return MatrixFactorization(target, r)


def _build_rosenbrock(seed, params):
    return TwoBlockRosenbrock(float(params.get("scale", 100.0)))


# family -> (builder, {each params key it reads: its [problem] config kind, or None for
# an array that only library callers pass})
_FAMILIES = {
    "tight_quadratic": (_build_tight_quadratic,
                        {"l": "float", "anchor": "vector", "g": "vector", "c": "float"}),
    "coupled_quadratic": (_build_coupled_quadratic, {"n_x": "int", "n_y": "int", "A": None, "B": None,
                                                     "C": None, "a": None, "c": None}),
    "matrix_factorization": (_build_matrix_factorization,
                             {"m": "int", "n": "int", "r": "int", "target": None}),
    "two_block_rosenbrock": (_build_rosenbrock, {"scale": "float"}),
}

FAMILY_NAMES = tuple(sorted(_FAMILIES))


def make_problem(spec: ProblemSpec) -> Objective:
    """Instantiate a bundled family; same spec and seed give an identical oracle.

    A params key the family does not read raises InvalidDimensions."""
    if spec.seed < 0:
        raise ValueError(f"spec.seed must be non-negative, got {spec.seed}")
    if spec.family not in _FAMILIES:
        raise UnknownFamily(
            f"unknown problem family {spec.family!r}; known: {', '.join(FAMILY_NAMES)}"
        )
    builder, keys = _FAMILIES[spec.family]
    unknown = sorted(set(spec.params).difference(keys))
    if unknown:
        raise InvalidDimensions(f"unknown params for {spec.family}: {', '.join(unknown)}")
    return builder(spec.seed, dict(spec.params))


def random_start(obj: Objective, seed: int = 0) -> BlockPoint:
    """Seeded standard-normal start matching the objective's dimensions."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    return BlockPoint(rng.standard_normal(obj.n_x), rng.standard_normal(obj.n_y))
