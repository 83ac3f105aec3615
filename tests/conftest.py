"""Shared test fixtures: the bundled problem zoo and strategy applicability."""

import numpy as np

from bcdcert.problem import Objective
from bcdcert.problems import ProblemSpec, make_problem, random_start

# Which x-strategies each family's declared oracles support. Rosenbrock
# deliberately has no Lipschitz oracle, so only backtracking applies.
APPLICABLE = {
    "tight_quadratic": ("fixed_step", "exact_min", "backtracking"),
    "coupled_quadratic": ("fixed_step", "exact_min", "backtracking"),
    "matrix_factorization": ("fixed_step", "exact_min", "backtracking"),
    "two_block_rosenbrock": ("backtracking",),
}

ZOO_PARAMS = {
    "tight_quadratic": {"l": 4.0, "anchor": [1.0, -2.0, 0.5], "g": [4.0, 0.0, -2.0]},
    "coupled_quadratic": {"n_x": 4, "n_y": 3},
    "matrix_factorization": {"m": 4, "n": 3, "r": 2},
    "two_block_rosenbrock": {"scale": 100.0},
}

ALL_COMBOS = [
    (family, strategy)
    for family in APPLICABLE
    for strategy in APPLICABLE[family]
]


def zoo_problem(family, seed=0):
    return make_problem(ProblemSpec(family, seed=seed, params=dict(ZOO_PARAMS[family])))


def zoo_start(obj, seed=0):
    return random_start(obj, seed)


class BreaksAtCall(Objective):
    """Delegates to ``inner`` until its ``fail_at``-th oracle call of ``kind``.

    That call returns NaN, or with ``wrong_size`` an array one entry too
    long (a 2-vector for the scalar oracles).
    """

    KINDS = ("value", "grad_x", "grad_y", "exact_min_x", "exact_min_y", "lipschitz_x")

    def __init__(self, inner, kind, fail_at, wrong_size):
        self.inner = inner
        self.n_x, self.n_y = inner.n_x, inner.n_y
        self.kind, self.fail_at, self.wrong_size = kind, fail_at, wrong_size
        self.calls = 0

    def _pass(self, kind, out):
        if kind != self.kind or out is None:
            return out
        self.calls += 1
        if self.calls != self.fail_at:
            return out
        if np.ndim(out) == 0:
            return np.array([out, out]) if self.wrong_size else float("nan")
        out = np.asarray(out, dtype=float)
        return np.append(out, 1.0) if self.wrong_size else np.full_like(out, np.nan)

    def value(self, p):
        return self._pass("value", self.inner.value(p))

    def grad_x(self, p):
        return self._pass("grad_x", self.inner.grad_x(p))

    def grad_y(self, p):
        return self._pass("grad_y", self.inner.grad_y(p))

    def exact_min_x(self, y):
        return self._pass("exact_min_x", self.inner.exact_min_x(y))

    def exact_min_y(self, x):
        return self._pass("exact_min_y", self.inner.exact_min_y(x))

    def lipschitz_x(self, y):
        return self._pass("lipschitz_x", self.inner.lipschitz_x(y))
