"""Runtime convergence certificate: a run's records, as columns.

Turns the convergence analysis into machine checks along an actual run:

- per step: the x-update decreased f by at least ||grad_x||^2 / (2 e_t), and
  the y-update did not increase f;
- at every prefix: the telescoping sum of certified decreases is bounded by
  the f drop so far, and min_t ||grad||^2 <= 2 e_max (f_0 - f_t) / t, the
  O(1/sqrt(T)) guarantee.

A run's records are kept as columns (``History``); ``audit.refold``, the
one certificate fold, decides all of the above in one pass over them, for
``solve()``, ``write_trace`` and the trace audit alike, so the run and the
audit reach the same ``Certificate``. The gradient norm recorded per step is
the x-block one; it stands in for the full gradient because the y block is
stationary (to within the recorded ``gy_residual``) at the measurement point.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .audit import RAW_FIELDS, check_record, fit_slope

# Rows turned into Python scalars at a time when a run is walked row by row.
_BLOCK = 1024


@dataclass(frozen=True)
class IterationRecord:
    """Audit trail of one BCD step.

    ``gx_norm_sq`` is ||grad_x f(x_t, y_t)||^2 measured before the x-update;
    ``gy_residual`` is ||grad_y f|| after this step's y-update; ``e_t`` is the
    constant the x-strategy certified; ``suff_ok`` is the step check's
    verdict, as ``audit.refold`` derives it.
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

    ``columns`` are 1-d buffers: numpy arrays, ``array('d')``s or
    ``bytearray``s. Each list holds one column's values for those rows as
    Python scalars, so walking a run row by row never holds more than one
    block of them.
    """
    n = len(columns[0])
    for t0 in range(0, n, _BLOCK):
        yield t0, [memoryview(col)[t0:t0 + _BLOCK].tolist() for col in columns]


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


def fit_rate(history: History) -> float:
    """``audit.fit_slope`` of the history's gx_norm_sq column: the min-gradient decay slope.

    Raises InsufficientHistory below 10 records and DegenerateFit when the
    gradient norm hit exactly zero.
    """
    return fit_slope(history.gx_norm_sq.tolist())
