import numpy as np
import pytest

from bcdcert.errors import DimensionMismatch, NonFiniteValue
from bcdcert.problem import BlockPoint, Objective, as_vector, checked_grad, evaluate


class SmallQuadratic(Objective):
    """f(x, y) = 0.5||x||^2 + 0.5||y||^2 on blocks of size 2 and 1."""

    n_x = 2
    n_y = 1

    def value(self, p):
        return 0.5 * float(p.x @ p.x + p.y @ p.y)

    def grad_x(self, p):
        return p.x.copy()

    def grad_y(self, p):
        return p.y.copy()


def test_as_vector_coerces_and_freezes():
    v = as_vector([1, 2, 3])
    assert v.dtype == np.float64
    assert v.shape == (3,)
    with pytest.raises(ValueError):
        v[0] = 9.0


def test_as_vector_scalar_becomes_1d():
    assert as_vector(2.5).shape == (1,)


def test_as_vector_rejects_nan_and_inf():
    with pytest.raises(NonFiniteValue):
        as_vector([1.0, np.nan])
    with pytest.raises(NonFiniteValue):
        as_vector([np.inf])


def test_blockpoint_is_immutable():
    p = BlockPoint([1.0, 2.0], [3.0])
    with pytest.raises(AttributeError):
        p.x = np.zeros(2)
    with pytest.raises(ValueError):
        p.x[0] = 5.0


def test_blockpoint_sizes_and_replacement():
    p = BlockPoint([1.0, 2.0], [3.0])
    assert (p.n_x, p.n_y) == (2, 1)
    q = p.with_x([0.0, 0.0])
    assert q == BlockPoint([0.0, 0.0], [3.0])
    assert p == BlockPoint([1.0, 2.0], [3.0])  # original untouched
    r = p.with_y([7.0])
    assert np.array_equal(r.y, [7.0]) and np.array_equal(r.x, p.x)


def replace_block(p, block, v):
    return p.with_x(v) if block == "x" else p.with_y(v)


def other_block(block):
    return "y" if block == "x" else "x"


@pytest.mark.parametrize("block", ["x", "y"])
def test_replacement_shares_the_untouched_block(block):
    p = BlockPoint([1.0, 2.0], [3.0])
    q = replace_block(p, block, [5.0] * getattr(p, "n_" + block))
    kept = other_block(block)
    assert getattr(q, kept) is getattr(p, kept)
    for name in ("x", "y"):
        arr = getattr(q, name)
        assert arr.dtype == np.float64 and arr.ndim == 1
        assert not arr.flags.writeable


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("block", ["x", "y"])
def test_replacement_still_rejects_non_finite_entries(block, bad):
    p = BlockPoint([1.0, 2.0], [3.0])
    with pytest.raises(NonFiniteValue):
        replace_block(p, block, [bad] * getattr(p, "n_" + block))


@pytest.mark.parametrize("block", ["x", "y"])
def test_replacement_copies_a_writable_caller_array(block):
    p = BlockPoint([1.0, 2.0], [3.0])
    v = np.full(getattr(p, "n_" + block), 4.0)
    q = replace_block(p, block, v)
    v[0] = 99.0
    assert getattr(q, block)[0] == 4.0
    assert not getattr(q, block).flags.writeable
    assert v.flags.writeable  # the caller's array is left as it was


@pytest.mark.parametrize("block", ["x", "y"])
def test_adopted_block_is_checked_and_frozen_without_a_copy(block):
    # the strategies' trial blocks: arrays the library computed and hands over
    p = BlockPoint([1.0, 2.0], [3.0])
    adopt = p._adopt_x if block == "x" else p._adopt_y
    v = np.full(getattr(p, "n_" + block), 4.0)
    q = adopt(v)
    assert getattr(q, block) is v and not v.flags.writeable
    assert getattr(q, other_block(block)) is getattr(p, other_block(block))
    with pytest.raises(NonFiniteValue, match=f"^{block} contains NaN/Inf entries$"):
        adopt(np.full(v.size, np.nan))


@pytest.mark.parametrize(
    "layout",
    [
        lambda g: g,
        lambda g: np.repeat(g, 2)[::2],  # a strided view
        lambda g: g.astype(np.float32),
        lambda g: g.reshape(-1, 1),
        lambda g: g.tolist(),
    ],
)
def test_checked_grad_flattens_any_layout_to_the_same_contiguous_vector(layout):
    base = np.array([0.1, -3.0, 2.5e-7])

    class Answer(Objective):
        n_x, n_y = 3, 0

        def grad_x(self, p):
            return layout(base)

    g, g_sq = checked_grad(Answer(), BlockPoint(np.zeros(3)), "x")
    want = np.asarray(layout(base), dtype=np.float64).ravel()
    assert g.dtype == np.float64 and g.ndim == 1 and g.flags.c_contiguous
    assert g.tobytes() == want.tobytes()
    assert g_sq == float(want @ want)


@pytest.mark.parametrize("block", ["x", "y"])
def test_replacement_turns_a_0d_block_into_shape_1(block):
    p = BlockPoint([1.0], [2.0])
    q = replace_block(p, block, np.array(6.0))
    assert getattr(q, block).shape == (1,)
    assert getattr(q, block)[0] == 6.0


@pytest.mark.parametrize("block", ["x", "y"])
def test_replacement_of_wrong_size_is_caught_by_check_point(block):
    obj = SmallQuadratic()
    p = BlockPoint([1.0, 2.0], [3.0])
    q = replace_block(p, block, np.zeros(getattr(p, "n_" + block) + 1))
    with pytest.raises(DimensionMismatch):
        obj.check_point(q)


def test_blockpoint_empty_y_block():
    p = BlockPoint([1.0])
    assert p.n_y == 0 and p.y.shape == (0,)


def test_blockpoint_equality_vs_other_types():
    assert BlockPoint([1.0], [2.0]) != "not a point"


def test_check_point_dimension_mismatch():
    obj = SmallQuadratic()
    with pytest.raises(DimensionMismatch):
        obj.check_point(BlockPoint([1.0], [2.0]))


def test_evaluate_returns_consistent_triple():
    obj = SmallQuadratic()
    p = BlockPoint([3.0, 4.0], [2.0])
    f, gx, gy = evaluate(obj, p)
    assert f == pytest.approx(0.5 * (9 + 16 + 4))
    np.testing.assert_array_equal(gx, [3.0, 4.0])
    np.testing.assert_array_equal(gy, [2.0])


def test_evaluate_rejects_wrong_gradient_size():
    class Broken(SmallQuadratic):
        def grad_x(self, p):
            return np.zeros(5)

    with pytest.raises(DimensionMismatch):
        evaluate(Broken(), BlockPoint([1.0, 1.0], [1.0]))


def test_evaluate_rejects_non_finite_value():
    class Broken(SmallQuadratic):
        def value(self, p):
            return float("nan")

    with pytest.raises(NonFiniteValue):
        evaluate(Broken(), BlockPoint([1.0, 1.0], [1.0]))


def test_evaluate_rejects_non_finite_gradient():
    class Broken(SmallQuadratic):
        def grad_y(self, p):
            return np.array([np.inf])

    with pytest.raises(NonFiniteValue):
        evaluate(Broken(), BlockPoint([1.0, 1.0], [1.0]))


def test_optional_oracles_default_to_none():
    obj = SmallQuadratic()
    assert obj.exact_min_y(np.zeros(2)) is None
    assert obj.exact_min_x(np.zeros(1)) is None
    assert obj.lipschitz_x(np.zeros(1)) is None
    assert obj.lower_bound() is None
