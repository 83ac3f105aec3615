"""Each oracle number passes one check, and that check is exact.

``as_vector`` and ``checked_grad`` test finiteness with the squared norm and
scan entry by entry only when the norm is not finite. A NaN or +-inf entry
anywhere must still raise ``NonFiniteValue`` with the message it always had,
and finite entries whose squares overflow must still pass (a gradient's
squared norm is then inf). ``Chain`` puts such answers into a solve at a
chosen oracle call; the pinned outcomes of the overflow cases are the ones
the entry-by-entry check produced, message for message.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcdcert.errors import NonFiniteValue
from bcdcert.problem import BlockPoint, Objective, as_vector, checked_grad
from bcdcert.solver import SolverConfig, solve

STRATEGIES = ("fixed_step", "exact_min", "backtracking")
KINDS = ("grad_x", "grad_y", "exact_min_x", "exact_min_y")
START = BlockPoint([1.0, 2.0], [0.5, -0.5])


class Chain(Objective):
    """f = ||x - y||^2 / 2 + ||y||^2 / 2 on two 2-vectors, every oracle declared.

    Its ``call``-th answer of ``kind`` is replaced by ``answer``, and the
    point or block it was asked at is kept in ``asked``. Sums are taken
    elementwise, so every number is exact on any BLAS.
    """

    n_x = n_y = 2

    def __init__(self, kind=None, call=0, answer=None):
        self.kind, self.call, self.answer = kind, call, answer
        self.calls = dict.fromkeys(KINDS, 0)
        self.asked = None

    def _pass(self, kind, at, out):
        self.calls[kind] += 1
        if kind != self.kind or self.calls[kind] != self.call:
            return out
        self.asked = at
        return self.answer

    def value(self, p):
        d = p.x - p.y
        return 0.5 * float(np.sum(d * d)) + 0.5 * float(np.sum(p.y * p.y))

    def grad_x(self, p):
        return self._pass("grad_x", p, p.x - p.y)

    def grad_y(self, p):
        return self._pass("grad_y", p, 2.0 * p.y - p.x)

    def exact_min_x(self, y):
        return self._pass("exact_min_x", y, y.copy())

    def exact_min_y(self, x):
        return self._pass("exact_min_y", x, 0.5 * x)

    def lipschitz_x(self, y):
        return 1.0


def expected_message(obj):
    """The message the poisoned answer's check raises."""
    if obj.kind.startswith("grad_"):
        return f"{obj.kind} is non-finite at {obj.asked!r}"
    return f"{obj.kind[-1]} contains NaN/Inf entries"


finite = st.floats(allow_nan=False, allow_infinity=False)
bad = st.sampled_from([math.nan, math.inf, -math.inf])


@st.composite
def poisoned(draw, size):
    """(answer, index): finite entries, huge ones included, with a NaN or +-inf at index."""
    values = draw(st.lists(finite, min_size=size, max_size=size))
    index = draw(st.integers(0, size - 1))
    values[index] = draw(bad)
    return values, index


@settings(deadline=None, max_examples=200)
@given(st.sampled_from(KINDS), st.sampled_from(STRATEGIES), st.integers(1, 2), poisoned(2),
       st.booleans())
def test_a_non_finite_entry_anywhere_in_an_answer_raises_as_before(kind, strategy, call, drawn,
                                                                    as_list):
    values, _ = drawn
    obj = Chain(kind, call, values if as_list else np.array(values))
    res = solve(obj, START, SolverConfig(x_strategy=strategy, max_iters=100))
    if obj.asked is None:  # this strategy never made that call
        assert res.stop_reason.value == "grad_tol_met"
        return
    assert type(res.error) is NonFiniteValue
    assert str(res.error) == expected_message(obj)
    assert res.stop_reason.value == "error"


@settings(deadline=None, max_examples=300)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(finite, min_size=n, max_size=n)))
def test_finite_entries_pass_and_the_squared_norm_is_the_plain_dot(values):
    class Answer(Objective):
        n_x, n_y = len(values), 0

        def grad_x(self, p):
            return np.array(values)

    p = BlockPoint(np.zeros(len(values)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # overflow is silent
        g, g_sq = checked_grad(Answer(), p, "x")
        assert as_vector(values).tolist() == values == as_vector(np.array(values)).tolist()
    with np.errstate(over="ignore"):
        plain = float(g @ g)
    assert g.tolist() == values
    assert g_sq == plain  # bitwise; inf when a square or the sum overflows


@settings(deadline=None, max_examples=300)
@given(st.integers(1, 6).flatmap(poisoned))
def test_a_non_finite_entry_fails_the_direct_checks(drawn):
    values, _ = drawn

    class Answer(Objective):
        n_x, n_y = 0, len(values)

        def grad_y(self, p):
            return np.array(values)

    p = BlockPoint([], np.zeros(len(values)))
    with pytest.raises(NonFiniteValue, match=r"^grad_y is non-finite at BlockPoint\("):
        checked_grad(Answer(), p, "y")
    for v in (values, np.array(values), np.array([values])):
        with pytest.raises(NonFiniteValue, match=r"^y contains NaN/Inf entries$"):
            as_vector(v, "y")


@pytest.mark.parametrize("values", [[1e200] * 3, [1e308, 1e308], [-1e308, 1e308, 1e-300]])
def test_finite_answers_whose_squares_overflow_pass_with_an_infinite_squared_norm(values):
    class Answer(Objective):
        n_x, n_y = len(values), 0

        def grad_x(self, p):
            return np.array(values)

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        g, g_sq = checked_grad(Answer(), BlockPoint(np.zeros(len(values))), "x")
        assert as_vector(values).tolist() == values
    assert g.tolist() == values and g_sq == math.inf


# Outcomes of solve() when one answer is finite but its squares overflow.
# (kind, answer, call) -> (stop_reason, error type, message), per strategy;
# the y-side outcomes are the same for every strategy.
BIG = {"1e200": [1e200, 1e200], "1e308": [1e308, 1e308]}
RESIDUAL_INF = ("error", "InnerSolveFailed", "exact_min_y left residual inf > y_tol 3e-10")
COMPLETES = ("grad_tol_met", None, "None")
Y_SIDE = {
    # the first grad_y only sizes y_tol: an overflowing norm falls back to 1
    ("grad_y", "1e200", 1): COMPLETES,
    ("grad_y", "1e308", 1): COMPLETES,
    ("grad_y", "1e200", 2): RESIDUAL_INF,
    ("grad_y", "1e308", 2): RESIDUAL_INF,
    ("exact_min_y", "1e200", 1): RESIDUAL_INF,
    # the oracle's own grad_y overflows at y = 1e308: 2y - x is inf
    ("exact_min_y", "1e308", 1): (
        "error", "NonFiniteValue", "grad_y is non-finite at BlockPoint(x=[1.0, 2.0], y=[1e+308, 1e+308])"),
}


def x_side(strategy, kind, big):
    x = {"1e200": "1e+200", "1e308": "1e+308"}[big]
    if kind == "exact_min_x":
        if strategy != "exact_min":
            return COMPLETES
        return ("error", "NonFiniteValue",
                f"objective value is inf at BlockPoint(x=[{x}, {x}], y=[0.5, 1.0])")
    if strategy == "fixed_step":
        return ("error", "NonFiniteValue",
                f"objective value is inf at BlockPoint(x=[-{x}, -{x}], y=[0.5, 1.0])")
    if strategy == "exact_min":
        return ("error", "SufficientDecreaseViolated",
                "decrease 0.625 < required inf with declared L=1; exact_min_x or lipschitz_x oracle is wrong")
    return ("error", "BacktrackExhausted",
            "no acceptable step after 60 rejections (last estimate 2.31e+18); "
            "bad l_init or non-Lipschitz region")


OVERFLOW_CASES = [(s, k, b, c) for s in STRATEGIES for (k, b, c) in Y_SIDE] + [
    (s, k, b, 1) for s in STRATEGIES for k in ("grad_x", "exact_min_x") for b in BIG
]


@pytest.mark.parametrize("strategy,kind,big,call", OVERFLOW_CASES)
def test_solve_on_overflowing_answers_ends_as_before(strategy, kind, big, call):
    obj = Chain(kind, call, np.array(BIG[big]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # Chain.value overflows, as a user oracle may
        res = solve(obj, START, SolverConfig(x_strategy=strategy, max_iters=100))
    want = Y_SIDE.get((kind, big, call)) or x_side(strategy, kind, big)
    got = (res.stop_reason.value, type(res.error).__name__ if res.error else None, str(res.error))
    assert got == want
