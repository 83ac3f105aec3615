"""A run's records as columns (``History``), and their trace file: CSV rows per iteration.

A History holds the six raw columns and the three a fold derives from them
(suff_ok, cum_sum, rate_bound_prefix). Built from raw values (by ``solve()``
or ``History.from_rows``), it carries ``audit.refold``'s columns for them,
folded once; read from a file (``read_trace``, without a copy), it carries
the columns as the file recorded them. ``write_trace`` renders the nine
columns as they are, so rewriting a parsed trace reproduces its bytes, edits
included: only the checker, ``verify_trace`` (``audit.verify``), derives a
verdict. Floats are serialized with repr(), which parses back to the
identical double, so an honest trace matches its refold bitwise, and any
single edited cell shows up as an exact mismatch (or as a broken f-chain
between consecutive rows). The file format and its line reader live in
``bcdcert.audit``.

``read_trace`` requires the six raw columns to be finite; the derived ones
may hold inf (an overflowing sum or bound in an honest run), and only the
refold judges them.

The check tolerance is not stored: it is ``check_tol_for(f0)``, with f0 the
first row's ``f_before``, the same number the run used, so the file alone
determines every derived column.

The gradient norm recorded per step is the x-block one; it stands in for
the full gradient because the y block is stationary (to within the recorded
``gy_residual``) at the measurement point.
"""

from __future__ import annotations

import json
import math
import operator
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .audit import (RAW_FIELDS, TABLE_FIELDS, TRACE_HEADER, Certificate, check_record, fit_slope,
                    read_table, refold, verify)

# Rows turned into Python scalars at a time when a run is walked row by row.
_BLOCK = 1024


@dataclass(frozen=True)
class IterationRecord:
    """Audit trail of one BCD step.

    ``gx_norm_sq`` is ||grad_x f(x_t, y_t)||^2 measured before the x-update;
    ``gy_residual`` is ||grad_y f|| after this step's y-update; ``e_t`` is the
    constant the x-strategy certified; ``suff_ok`` is the step check's
    verdict, as ``audit.refold`` derives it for a run and as a trace file
    records it.
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


@dataclass(frozen=True)
class TraceRow:
    """One parsed trace line: the raw record plus its recorded derived columns."""

    record: IterationRecord
    cum_sum: float
    rate_bound_prefix: float


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
    """A run's records as columns: float64 arrays and the bool suff_ok, in trace column order.

    Reads like a list of ``IterationRecord`` with ``t == index``; a row
    becomes a record (of Python floats) only when it is read, and iteration
    converts one ``row_blocks`` block at a time. The constructor takes all
    nine columns as they are, values that passed ``check_record`` and
    derived columns that go with them; it checks neither.
    """

    __slots__ = RAW_FIELDS + ("suff_ok", "cum_sum", "rate_bound_prefix")
    _fields = __slots__[:-2]  # the columns a row is built from, in order

    def __init__(self, f_before, f_after_x, f_after_y, gx_norm_sq, gy_residual, e_t,
                 suff_ok, cum_sum, rate_bound_prefix):
        floats = (f_before, f_after_x, f_after_y, gx_norm_sq, gy_residual, e_t, cum_sum, rate_bound_prefix)
        for name, col in zip(TABLE_FIELDS, floats):
            setattr(self, name, np.asarray(col, dtype=np.float64))
        self.suff_ok = np.asarray(suff_ok, dtype=bool)

    @classmethod
    def _fold(cls, rows, f0: float = math.nan) -> tuple[History, Certificate]:
        """(History, Certificate) of rows of (f_before, ..., e_t), already checked, folded once.

        ``rows`` is a sequence of tuples or an (n, 6) float64 array, which is
        copied in one step. The derived columns are the ones ``audit.refold``
        returns, kept without a copy; f0 names an empty run's start value.
        """
        table = np.array(rows, dtype=np.float64).reshape(len(rows), len(RAW_FIELDS)).T
        suff_ok, cum_sum, bounds, cert = refold(*map(memoryview, table), f0)
        return cls(*table, np.frombuffer(suff_ok, dtype=bool), cum_sum, bounds), cert

    @classmethod
    def from_rows(cls, rows) -> History:
        """From rows of (f_before, ..., e_t), already checked; the fold derives the rest (see ``_fold``)."""
        return cls._fold(rows)[0]

    @classmethod
    def from_records(cls, records) -> History:
        """From IterationRecords in order, as ``from_rows``; a record's own suff_ok is not read.

        Raises ValueError when a record's t is not its index.
        """
        rows = []
        for i, rec in enumerate(records):
            if rec.t != i:
                raise ValueError(f"record t={rec.t} at index {i}")
            rows.append(tuple(getattr(rec, name) for name in RAW_FIELDS))
        return cls.from_rows(rows)

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


class Trace(History):
    """A parsed trace: a History that reads like a list of ``TraceRow``.

    From ``read_trace``, the float columns are views of the one buffer the
    file was parsed into.
    """

    _fields = History.__slots__

    def _row(self, t, *values):
        return TraceRow(IterationRecord(t, *values[:7]), *values[7:])


def fit_rate(history: History) -> float:
    """``audit.fit_slope`` of the history's gx_norm_sq column: the min-gradient decay slope.

    Raises InsufficientHistory below 10 records and DegenerateFit when the
    gradient norm hit exactly zero.
    """
    return fit_slope(history.gx_norm_sq.tolist())


def _atomic_write(path: str, chunks) -> None:
    """Write the strings of ``chunks`` to ``path`` through a temporary file and a rename."""
    dirname = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=dirname, prefix=".tmp-trace-")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_trace(path: str, history: History) -> None:
    """Write a History's nine columns, as they are, as a trace CSV (whole-file atomic).

    Lines are rendered from the columns with repr(), one ``row_blocks``
    block at a time.
    """
    columns = [getattr(history, name) for name in History.__slots__]

    def lines():
        yield TRACE_HEADER + "\n"
        for t0, (*raw, flags, sums, bounds) in row_blocks(columns):
            cells = [map(str, range(t0, t0 + len(flags)))]
            cells += [map(repr, col) for col in raw]
            cells += [("1" if ok else "0" for ok in flags), map(repr, sums), map(repr, bounds)]
            yield "".join(",".join(row) + "\n" for row in zip(*cells))

    _atomic_write(path, lines())


def write_json(path: str, payload: dict) -> None:
    """Atomic JSON dump used for summaries; NaN/inf raise instead of writing invalid JSON."""
    _atomic_write(path, [json.dumps(payload, indent=1, sort_keys=True, allow_nan=False) + "\n"])


def read_trace(path: str) -> Trace:
    """Parse and validate a trace CSV with ``read_table``; schema violations raise SchemaMismatch.

    The first faulty line is named, as a line-by-line parse meets it.
    """
    flags, values = read_table(path)
    # the parsed buffer itself, without a copy: every column is a view of it
    table = np.frombuffer(values, dtype=np.float64).reshape(len(flags), len(TABLE_FIELDS)).T
    return Trace(*table[: len(RAW_FIELDS)], flags, *table[len(RAW_FIELDS):])


def verify_trace(history: History) -> Certificate:
    """Refold a History with the checker's ``verify``: its certificate, or TamperDetected.

    Any History will do: a parsed trace or a run's own. TamperDetected names
    the first offending row: the f-chain between consecutive rows is checked
    first, then whether any carried derived column disagrees with
    recomputation (suff_ok, then cum_sum, then rate_bound_prefix within a
    row). The certificate's verdicts are the ones the run that wrote the
    trace reached, under the tolerance ``check_tol_for(f0)`` of the first
    row's f0; an empty trace gives ``Certificate.fresh(nan)``.
    """
    columns = {name: memoryview(getattr(history, name)) for name in TABLE_FIELDS}
    return verify(memoryview(history.suff_ok), columns)
