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


class GradXTurnsNaN(Objective):
    """Delegates to ``inner``, except that its ``fail_at``-th grad_x call returns NaN."""

    def __init__(self, inner, fail_at=3):
        self.inner = inner
        self.n_x = inner.n_x
        self.n_y = inner.n_y
        self.fail_at = fail_at
        self.grad_x_calls = 0

    def value(self, p):
        return self.inner.value(p)

    def grad_x(self, p):
        self.grad_x_calls += 1
        g = np.asarray(self.inner.grad_x(p), dtype=float)
        return np.full_like(g, np.nan) if self.grad_x_calls == self.fail_at else g

    def grad_y(self, p):
        return self.inner.grad_y(p)

    def exact_min_y(self, x):
        return self.inner.exact_min_y(x)

    def exact_min_x(self, y):
        return self.inner.exact_min_x(y)

    def lipschitz_x(self, y):
        return self.inner.lipschitz_x(y)

    def lower_bound(self):
        return self.inner.lower_bound()
