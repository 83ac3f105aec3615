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


def as_vector(v, name: str = "vector") -> np.ndarray:
    """Coerce to a read-only, finite float64 1-D array (always a private copy)."""
    arr = np.array(v, dtype=np.float64, ndmin=1)
    if arr.ndim > 1:
        arr = arr.ravel()
    if not np.isfinite(arr).all():
        raise NonFiniteValue(f"{name} contains NaN/Inf entries")
    arr.flags.writeable = False
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
    ``with_x``/``with_y`` validate only the block they replace and share the
    other, already finite and read-only, with ``self``.
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
        if p.n_x != self.n_x or p.n_y != self.n_y:
            raise DimensionMismatch(
                f"point has blocks ({p.n_x}, {p.n_y}), "
                f"objective expects ({self.n_x}, {self.n_y})"
            )


def checked_value(obj: Objective, p: BlockPoint) -> float:
    """``obj.value(p)`` as a float, raising NonFiniteValue unless it is finite."""
    f = float(obj.value(p))
    if not math.isfinite(f):
        raise NonFiniteValue(f"objective value is {f!r} at {p!r}")
    return f


def checked_grad(obj: Objective, p: BlockPoint, block: str) -> np.ndarray:
    """One block gradient (``block`` is "x" or "y") as a flat float64 array.

    Raises DimensionMismatch when its size is not the block's and
    NonFiniteValue when an entry is NaN/Inf.
    """
    grad, size = (obj.grad_x, obj.n_x) if block == "x" else (obj.grad_y, obj.n_y)
    g = np.asarray(grad(p), dtype=np.float64).ravel()
    if g.size != size:
        raise DimensionMismatch(f"grad_{block} has size {g.size}, expected {size}")
    if not np.isfinite(g).all():
        raise NonFiniteValue(f"grad_{block} is non-finite at {p!r}")
    return g


def evaluate(obj: Objective, p: BlockPoint):
    """Bundled oracle call: (value, grad_x, grad_y) at one point, all checked.

    Validates dimensions and finiteness so the caller can trust every
    number it records.
    """
    obj.check_point(p)
    return checked_value(obj, p), checked_grad(obj, p, "x"), checked_grad(obj, p, "y")
