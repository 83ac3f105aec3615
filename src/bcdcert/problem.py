"""Iterate representation and the two-block objective oracle interface.

The solver only ever talks to an :class:`Objective` through the methods here:
a value, one gradient per block, and a handful of optional oracles (exact
block minimizers, a block-x Lipschitz constant, a lower bound). Optional
oracles return ``None`` when the problem cannot provide them; strategies turn
that into the specific Missing* error.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, NonFiniteValue

Vector = np.ndarray


def _squared_norm(arr: np.ndarray) -> float:
    """||arr||^2 of a flat float64 array; NaN when an entry is NaN or +-inf.

    The squared norm is the finiteness test. Every square is >= 0, so a NaN
    or +-inf entry can only make the sum NaN or +inf, and a finite sum proves
    every entry finite. Only a non-finite sum pays for the entry-by-entry
    scan, which tells a bad entry (NaN comes back) from finite entries whose
    squares overflow (+inf comes back). ``np.vdot`` calls the same BLAS dot
    as ``arr @ arr``, so the sum has the same bits, but unlike ``@``, ``dot``
    and ``sum`` it raises no overflow warning.
    """
    sq = float(np.vdot(arr, arr))
    if math.isfinite(sq) or np.isfinite(arr).all():
        return sq
    return math.nan


_FLOAT64 = np.dtype(np.float64)  # a singleton: blocks are tested with ``is``


def as_vector(v, name: str = "vector", *, copy: bool = True) -> np.ndarray:
    """Coerce to a read-only, finite float64 1-D array.

    The result is a private copy of ``v``. With ``copy=False`` a flat float64
    ndarray is checked and frozen in place instead; only the library passes
    that, for an array it has just computed and hands over (a trial block),
    which nothing else holds.
    """
    if type(v) is np.ndarray and v.ndim == 1 and v.dtype is _FLOAT64:
        arr = v.copy() if copy else v
    else:
        arr = np.array(v, dtype=np.float64, ndmin=1)
        if arr.ndim > 1:
            arr = arr.ravel()
    if math.isnan(_squared_norm(arr)):
        raise NonFiniteValue(f"{name} contains NaN/Inf entries")
    arr.setflags(write=False)
    return arr


def _from_blocks(x: np.ndarray, y: np.ndarray) -> "BlockPoint":
    """A BlockPoint from two blocks that ``as_vector`` has already returned."""
    p = object.__new__(BlockPoint)
    object.__setattr__(p, "x", x)
    object.__setattr__(p, "y", y)
    return p


class BlockPoint:
    """An iterate (x, y): two real vectors of independent dimensions.

    Immutable after construction; entries are validated finite. Either block
    may be empty (n_y = 0 lets a pure-x quadratic share the full solver path).
    ``with_x``/``with_y`` copy and validate only the block they replace and
    share the other, already finite and read-only, with ``self``. The
    strategies build their trial points with ``_adopt_x``/``_adopt_y``,
    which validate and freeze the block they are handed without copying it.
    """

    __slots__ = ("x", "y")

    def __init__(self, x, y=()):
        object.__setattr__(self, "x", as_vector(x, "x"))
        object.__setattr__(self, "y", as_vector(y, "y"))

    def __setattr__(self, name, value):
        raise AttributeError("BlockPoint is immutable")

    @property
    def n_x(self) -> int:
        return self.x.size

    @property
    def n_y(self) -> int:
        return self.y.size

    def with_x(self, x) -> "BlockPoint":
        return _from_blocks(as_vector(x, "x"), self.y)

    def with_y(self, y) -> "BlockPoint":
        return _from_blocks(self.x, as_vector(y, "y"))

    def _adopt_x(self, x: np.ndarray) -> "BlockPoint":
        """``with_x`` for a block the caller computed and gives up: not copied."""
        return _from_blocks(as_vector(x, "x", copy=False), self.y)

    def _adopt_y(self, y: np.ndarray) -> "BlockPoint":
        """``with_y`` for a block the caller computed and gives up: not copied."""
        return _from_blocks(self.x, as_vector(y, "y", copy=False))

    def __eq__(self, other):
        return (
            isinstance(other, BlockPoint)
            and np.array_equal(self.x, other.x)
            and np.array_equal(self.y, other.y)
        )

    def __repr__(self):
        return f"BlockPoint(x={self.x.tolist()}, y={self.y.tolist()})"


class Objective:
    """Behavioral interface for a differentiable two-block objective f(x, y).

    Subclasses must set ``n_x`` and ``n_y`` and implement ``value``,
    ``grad_x`` and ``grad_y``. Implementations must be deterministic (same
    point, same bits) and safe to evaluate concurrently; any caching has to be
    observably invisible.

    Optional oracles (default: not provided, return ``None``):

    - ``exact_min_y(x)``: argmin over y of f(x, .), as a vector.
    - ``exact_min_x(y)``: argmin over x of f(., y).
    - ``lipschitz_x(y)``: a constant L with
      ||grad_x(x', y) - grad_x(x, y)|| <= L ||x' - x|| for all x, x'.
    - ``lower_bound()``: a known lower bound on f, reported but never used
      by the algorithm.
    """

    n_x: int
    n_y: int

    def value(self, p: BlockPoint) -> float:
        raise NotImplementedError

    def grad_x(self, p: BlockPoint) -> np.ndarray:
        raise NotImplementedError

    def grad_y(self, p: BlockPoint) -> np.ndarray:
        raise NotImplementedError

    def exact_min_y(self, x: np.ndarray):
        return None

    def exact_min_x(self, y: np.ndarray):
        return None

    def lipschitz_x(self, y: np.ndarray):
        return None

    def lower_bound(self):
        return None

    def check_point(self, p: BlockPoint) -> None:
        if p.x.size != self.n_x or p.y.size != self.n_y:
            raise DimensionMismatch(
                f"point has blocks ({p.x.size}, {p.y.size}), "
                f"objective expects ({self.n_x}, {self.n_y})"
            )


def checked_value(obj: Objective, p: BlockPoint) -> float:
    """``obj.value(p)`` as a float.

    Raises DimensionMismatch unless it is a scalar and NonFiniteValue unless
    it is finite.
    """
    v = obj.value(p)
    try:
        f = float(v)
    except TypeError:
        raise DimensionMismatch(f"objective value has shape {np.shape(v)}, expected a scalar") from None
    if not math.isfinite(f):
        raise NonFiniteValue(f"objective value is {f!r} at {p!r}")
    return f


def positive_lipschitz(lip) -> float:
    """A declared ``lipschitz_x`` as a float; it must be a finite, positive scalar."""
    try:
        lip = float(lip)
    except TypeError:
        raise DimensionMismatch(f"lipschitz_x has shape {np.shape(lip)}, expected a scalar") from None
    if not (math.isfinite(lip) and lip > 0):
        raise NonFiniteValue(f"lipschitz_x returned {lip!r}")
    return lip


def checked_grad(obj: Objective, p: BlockPoint, block: str):
    """One block gradient (``block`` is "x" or "y") and its squared norm.

    Returns ``(g, g_sq)``: ``g`` a flat, contiguous float64 array (the
    oracle's own when it already is one, not copied) and ``g_sq`` its
    ``_squared_norm``, which is also the finiteness test. Raises
    DimensionMismatch when the size is not the block's and NonFiniteValue
    when an entry is NaN/Inf; finite entries whose squares overflow pass,
    with ``g_sq = inf``.
    """
    grad, size = (obj.grad_x, obj.n_x) if block == "x" else (obj.grad_y, obj.n_y)
    g = grad(p)
    # A strided vector would take another BLAS dot path in _squared_norm,
    # which may round differently: only a contiguous one is used as is.
    if not (type(g) is np.ndarray and g.ndim == 1 and g.dtype is _FLOAT64
            and g.flags.c_contiguous):
        g = np.asarray(g, dtype=np.float64).ravel()
    if g.size != size:
        raise DimensionMismatch(f"grad_{block} has size {g.size}, expected {size}")
    g_sq = _squared_norm(g)
    if math.isnan(g_sq):
        raise NonFiniteValue(f"grad_{block} is non-finite at {p!r}")
    return g, g_sq


def evaluate(obj: Objective, p: BlockPoint):
    """Bundled oracle call: (value, grad_x, grad_y) at one point, all checked.

    Validates dimensions and finiteness so the caller can trust every
    number it records.
    """
    obj.check_point(p)
    return checked_value(obj, p), checked_grad(obj, p, "x")[0], checked_grad(obj, p, "y")[0]
