"""Runtime convergence certificate.

Turns the convergence analysis into machine checks along an actual run:

- per step: the x-update decreased f by at least ||grad_x||^2 / (2 e_t), and
  the y-update did not increase f;
- at every prefix: the telescoping sum of certified decreases is bounded by
  the f drop so far, and min_t ||grad||^2 <= 2 e_max (f_0 - f_t) / t, the
  O(1/sqrt(T)) guarantee.

A run's records are kept as columns (``History``), and ``fold`` decides all
of the above in one pass of running sums, maxima and minima over them, for
``solve()``, ``write_trace`` and the trace audit alike: each gets the same
``Certificate``, so the run and the audit share one verdict. Two functions
hold the paper's inequalities, ``sufficient_decrease`` (per step) and
``rate_bound`` (the min-gradient rate), and each serves both the scalar
callers and ``fold``'s columns. The gradient norm
recorded per step is the x-block one; it stands in for the full gradient
because the y block is stationary (to within the recorded ``gy_residual``)
at the measurement point.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFit, InsufficientHistory

# The raw fields of a record, in trace column order; everything else is derived.
RAW_FIELDS = ("f_before", "f_after_x", "f_after_y", "gx_norm_sq", "gy_residual", "e_t")

# Rows turned into Python scalars at a time when a run is walked row by row.
_BLOCK = 1024


def check_record(t, *fields) -> None:
    """Raise ValueError unless record t's raw fields, in RAW_FIELDS order, are valid.

    Valid means finite, with both norms >= 0 and e_t > 0.
    """
    gx_norm_sq, gy_residual, e_t = fields[3:]
    if not all(map(math.isfinite, fields)):
        raise ValueError(f"record {t} has non-finite fields")
    if gx_norm_sq < 0 or gy_residual < 0:
        raise ValueError(f"record {t} has negative norms")
    if not e_t > 0:
        raise ValueError(f"record {t} has e_t = {e_t!r}, must be > 0")


@dataclass(frozen=True)
class IterationRecord:
    """Audit trail of one BCD step.

    ``gx_norm_sq`` is ||grad_x f(x_t, y_t)||^2 measured before the x-update;
    ``gy_residual`` is ||grad_y f|| after this step's y-update; ``e_t`` is the
    constant the x-strategy certified; ``suff_ok`` is the step check's
    verdict, as ``fold`` derives it.
    """

    t: int
    f_before: float
    f_after_x: float
    f_after_y: float
    gx_norm_sq: float
    gy_residual: float
    e_t: float
    suff_ok: bool = False

    def __post_init__(self):
        check_record(self.t, self.f_before, self.f_after_x, self.f_after_y,
                     self.gx_norm_sq, self.gy_residual, self.e_t)


def row_blocks(columns):
    """Yield (t0, lists): rows t0, t0 + 1, ... of equal-length ``columns``, _BLOCK rows at a time.

    Each list holds one column's values for those rows as Python scalars, so
    walking a run row by row never holds more than one block of them.
    """
    n = len(columns[0])
    for t0 in range(0, n, _BLOCK):
        yield t0, [col[t0:t0 + _BLOCK].tolist() for col in columns]


class History:
    """Records as columns: a float64 array per raw field, plus the bool suff_ok.

    Reads like a list of ``IterationRecord`` with ``t == index``; a row
    becomes a record (of Python floats) only when it is read, and iteration
    converts one ``row_blocks`` block at a time. Build it from
    values that passed ``check_record``; it does not check them again.
    """

    __slots__ = RAW_FIELDS + ("suff_ok",)
    _fields = __slots__  # the columns a row is built from, in order

    def __init__(self, f_before, f_after_x, f_after_y, gx_norm_sq, gy_residual, e_t, suff_ok):
        for name, col in zip(RAW_FIELDS, (f_before, f_after_x, f_after_y, gx_norm_sq, gy_residual, e_t)):
            setattr(self, name, np.asarray(col, dtype=np.float64))
        self.suff_ok = np.asarray(suff_ok, dtype=bool)

    @classmethod
    def from_rows(cls, rows, suff_ok=None) -> "History":
        """From rows of (f_before, ..., e_t), already checked; suff_ok defaults to all False.

        ``rows`` is a sequence of tuples or an (n, 6) float64 array, which is
        copied in one step.
        """
        table = np.array(rows, dtype=np.float64).reshape(len(rows), len(RAW_FIELDS))
        if suff_ok is None:
            suff_ok = np.zeros(len(rows), dtype=bool)
        return cls(*table.T, suff_ok=suff_ok)

    @classmethod
    def from_records(cls, records) -> "History":
        """From IterationRecords in order; raises ValueError when a record's t is not its index."""
        rows, flags = [], []
        for i, rec in enumerate(records):
            if rec.t != i:
                raise ValueError(f"record t={rec.t} at index {i}")
            rows.append(tuple(getattr(rec, name) for name in RAW_FIELDS))
            flags.append(rec.suff_ok)
        return cls.from_rows(rows, flags)

    def _row(self, t, *values):
        return IterationRecord(t, *values)

    def __len__(self) -> int:
        return len(self.suff_ok)

    def __iter__(self):
        for t0, columns in row_blocks([getattr(self, name) for name in self._fields]):
            for t, values in enumerate(zip(*columns), t0):
                yield self._row(t, *values)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        t = range(len(self))[index]
        return self._row(t, *(getattr(self, name)[t].item() for name in self._fields))

    def __eq__(self, other):
        if isinstance(other, (History, list)):
            return len(self) == len(other) and all(map(operator.eq, self, other))
        return NotImplemented


@dataclass
class Certificate:
    """Aggregate of a record sequence, as ``fold`` computes it.

    Fold identities: ``e_min``/``min_grad_sq`` start at +inf, ``e_max`` at 0.
    ``telescope_ok``/``rate_bound_ok`` say the bound held at every prefix.
    ``vacuous_steps`` counts the steps whose required decrease
    ||gx||^2 / (2 e_t) is at most the tolerance, so that their check says
    only that f did not rise by more than the tolerance; ``grad_floor``,
    sqrt(2 e_max tol), is the gradient norm below which every step is such
    a step.
    ``invalidated`` marks a certificate whose run aborted mid-iteration; it is
    returned for diagnosis but never counts as passing.
    """

    f0: float
    f_final: float
    num_steps: int = 0
    running_sum: float = 0.0
    e_max: float = 0.0
    e_min: float = math.inf
    min_grad_sq: float = math.inf
    max_gy_residual: float = 0.0
    telescope_ok: bool = True
    rate_bound_ok: bool = True
    all_steps_ok: bool = True
    vacuous_steps: int = 0
    grad_floor: float = 0.0
    invalidated: bool = False

    @classmethod
    def fresh(cls, f0: float) -> "Certificate":
        return cls(f0=float(f0), f_final=float(f0))

    @property
    def rate_bound(self) -> float:
        """2 e_max (f0 - f_final) / T (see ``rate_bound``); NaN until a step has been recorded."""
        if self.num_steps == 0:
            return math.nan
        return float(rate_bound(self.e_max, self.f0 - self.f_final, self.num_steps))

    def passed(self) -> bool:
        return (self.all_steps_ok and self.telescope_ok and self.rate_bound_ok
                and not self.invalidated)


def check_tol_for(f0: float) -> float:
    """The run's one tolerance, 1e-10 * max(1, |f0|), from its first value.

    Strategies accept steps, and the certificate and trace audit check them,
    against this number; a trace carries f0 in its first row, so the audit
    recovers it from the file alone.
    """
    return 1e-10 * max(1.0, abs(f0))


def sufficient_decrease(f, f_next, g_sq, e, tol):
    """f - f_next >= g_sq / (2 e) - tol: the per-step inequality, within tol.

    The one decrease test: strategies accept a step with it and ``fold``
    certifies every recorded step with it (elementwise, on columns), so both
    decide alike.
    """
    return f - f_next >= g_sq / (2.0 * e) - tol


def rate_bound(e_max, drop, steps):
    """2 e_max drop / steps: the min-gradient rate bound after ``steps`` steps.

    The one rate-bound formula: ``Certificate.rate_bound`` applies it to
    floats and ``fold`` to columns, elementwise. A zero drop gives a zero
    bound (of the drop's sign) even when ``2 e_max`` overflows, where the
    product alone would be inf * 0 = NaN; every other value is the plain
    product. On arrays, call it under ``np.errstate`` as ``fold`` does.
    """
    return np.where(drop == 0.0, drop, 2.0 * e_max * drop / steps)


def fold(history: History, f0: float = math.nan):
    """Check every step and every prefix of ``history`` in one pass.

    Returns (suff_ok, cum_sum, rate_bound_prefix, certificate): per row the
    step check, the running sum of ||gx||^2 / (2 e_t) and the rate bound
    2 e_max (f0 - f_t) / (t + 1); and the whole sequence's certificate,
    whose telescope_ok and rate_bound_ok say both bounds held at every
    prefix, within ``check_tol_for(f0)``. f0 is the first row's f_before
    (the argument only names an empty history's start value). The sum adds
    in sequence from 0.0 and the rest is elementwise, so every value is
    bitwise the one a record-by-record loop computes.
    """
    n = len(history)
    if n == 0:
        return np.zeros(0, dtype=bool), np.zeros(0), np.zeros(0), Certificate.fresh(f0)
    f_before, f_after_x, f_after_y = history.f_before, history.f_after_x, history.f_after_y
    g_sq, e = history.gx_norm_sq, history.e_t
    f0 = float(f_before[0])
    tol = check_tol_for(f0)
    with np.errstate(over="ignore", invalid="ignore"):
        suff_ok = sufficient_decrease(f_before, f_after_x, g_sq, e, tol) & (f_after_y <= f_after_x + tol)
        required = g_sq / (2.0 * e)
        cum_sum = np.add.accumulate(np.concatenate(([0.0], required)))[1:]
        drop = f0 - f_after_y
        bound = rate_bound(np.maximum.accumulate(e), drop, np.arange(1.0, n + 1.0))
        telescope_ok = bool(np.all(cum_sum <= drop + tol))
        rate_bound_ok = bool(np.all(np.minimum.accumulate(g_sq) <= bound + tol))
    e_max = float(e.max())
    cert = Certificate(
        f0=f0,
        f_final=float(f_after_y[-1]),
        num_steps=n,
        running_sum=float(cum_sum[-1]),
        e_max=e_max,
        e_min=float(e.min()),
        # the first of tied minima, as a min() fold keeps it (0.0 vs -0.0)
        min_grad_sq=float(g_sq[np.argmin(g_sq)]),
        max_gy_residual=max(0.0, float(history.gy_residual.max())),
        telescope_ok=telescope_ok,
        rate_bound_ok=rate_bound_ok,
        all_steps_ok=bool(suff_ok.all()),
        vacuous_steps=int(np.count_nonzero(required <= tol)),
        grad_floor=math.sqrt(2.0 * e_max * tol),
    )
    return suff_ok, cum_sum, bound, cert


def fit_rate(history: History) -> float:
    """Least-squares slope of log(min-so-far gradient norm) vs log(t + 1).

    A certified run's bound curve has slope exactly -1/2; an actual trace
    may fall faster. Needs at least 10 records, all with positive
    min-so-far norms (a norm of exactly zero means convergence, not a
    power law).
    """
    g_sq = history.gx_norm_sq
    if len(g_sq) < 10:
        raise InsufficientHistory(f"{len(g_sq)} records; need at least 10")
    norms = np.minimum.accumulate(np.sqrt(g_sq))
    if np.any(norms == 0.0):
        raise DegenerateFit("gradient norm hit exactly zero; run converged")
    ts = np.log(np.arange(1, len(g_sq) + 1, dtype=float))
    slope, _ = np.polyfit(ts, np.log(norms), 1)
    return float(slope)
