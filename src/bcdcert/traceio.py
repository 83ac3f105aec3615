"""A run's records as columns (``History``), their trace file, and the checker that decides it.

A History holds the six raw columns and the three a fold derives from them
(suff_ok, cum_sum, rate_bound_prefix), as the standard-library buffers that
made them, so nothing here needs numpy: a run's (``solve()`` or
``History.from_rows``) are ``array('d')`` slices of its flat rows and
``audit.refold``'s own ``bytearray`` and ``array('d')``s, folded once; a
parsed trace's (``read_trace``) are strided ``memoryview``s of the one
``array('d')`` the file was parsed into and the parser's suff_ok
``bytearray``, as the file recorded them. ``np.asarray(column)`` views any
of them without a copy. ``write_trace`` renders the nine columns as they
are, so rewriting a parsed trace reproduces its bytes, edits included: only
the checker, ``verify_trace``, derives a verdict. Floats are serialized
with repr(), which parses back to the identical double, so an honest trace
matches its refold bitwise, and any single edited cell shows up as an exact
mismatch (or as a broken f-chain between consecutive rows). The file
format and its line reader live in ``bcdcert.audit``.

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

import itertools
import json
import math
import operator
import os
from array import array
from dataclasses import dataclass

from .audit import RAW_FIELDS, TABLE_FIELDS, TRACE_HEADER, Certificate, check_record, read_table, refold
from .errors import TamperDetected

# suff_ok's place among a row's columns, after the raw fields
_SUFF_OK = len(RAW_FIELDS)


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


class History:
    """A run's records as columns, in trace column order: float64 buffers and suff_ok's 0/1 bytes.

    Reads like a list of ``IterationRecord`` with ``t == index``; a row
    becomes a record (of Python floats and a bool suff_ok) only when it is
    read. The constructor stores the nine columns it is given, in
    ``__slots__`` order, as they are: values that passed ``check_record``
    and derived columns that go with them; it checks neither.
    """

    __slots__ = RAW_FIELDS + ("suff_ok", "cum_sum", "rate_bound_prefix")
    _fields = __slots__[:-2]  # the columns a row is built from, in order

    def __init__(self, *columns):
        for name, column in zip(self.__slots__, columns, strict=True):
            setattr(self, name, column)

    @classmethod
    def _fold(cls, rows: array, f0: float = math.nan) -> tuple[History, Certificate]:
        """(History, Certificate) of checked records' raw fields, row after row in one flat ``array('d')``.

        The raw columns are strided slices of ``rows``, and the derived ones
        are the buffers ``audit.refold`` returns for them, folded once; f0
        names an empty run's start value.
        """
        width = len(RAW_FIELDS)
        raw = [rows[i::width] for i in range(width)]
        suff_ok, cum_sum, bounds, cert = refold(*raw, f0)
        return cls(*raw, suff_ok, cum_sum, bounds), cert

    @classmethod
    def from_rows(cls, rows) -> History:
        """From rows of (f_before, ..., e_t), folded once (see ``_fold``).

        Raises ValueError, naming the record, at the first row that is not
        six fields or fails ``check_record``.
        """
        flat = array("d")
        for t, row in enumerate(rows):
            row = array("d", row)
            if len(row) != len(RAW_FIELDS):
                raise ValueError(f"record {t} has {len(row)} fields, not {len(RAW_FIELDS)}")
            check_record(t, *row)
            flat += row
        return cls._fold(flat)[0]

    def _row(self, t, *values):
        return IterationRecord(t, *values)

    def __len__(self) -> int:
        return len(self.suff_ok)

    def __iter__(self):
        columns = [getattr(self, name) for name in self._fields]
        columns[_SUFF_OK] = map(bool, columns[_SUFF_OK])
        return map(self._row, itertools.count(), *columns)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        t = range(len(self))[index]
        values = [getattr(self, name)[t] for name in self._fields]
        values[_SUFF_OK] = bool(values[_SUFF_OK])
        return self._row(t, *values)

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


def _atomic_write(path: str, chunks) -> None:
    """Write the strings of ``chunks`` to ``path`` through a temporary file and a rename."""
    import tempfile  # here: with shutil and random it costs ~5 ms, which report, reading only, need not pay

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

    Each line is rendered from one row of the columns, floats with repr().
    """
    rows = zip(*(getattr(history, name) for name in History.__slots__))
    lines = (f"{t},{f!r},{f_x!r},{f_y!r},{g_sq!r},{gy!r},{e!r},{'1' if ok else '0'},{s!r},{bound!r}\n"
             for t, (f, f_x, f_y, g_sq, gy, e, ok, s, bound) in enumerate(rows))
    _atomic_write(path, itertools.chain([TRACE_HEADER + "\n"], lines))


def write_json(path: str, payload: dict) -> None:
    """Atomic JSON dump used for summaries; NaN/inf raise instead of writing invalid JSON."""
    _atomic_write(path, [json.dumps(payload, indent=1, sort_keys=True, allow_nan=False) + "\n"])


def read_trace(path: str) -> Trace:
    """Parse and validate a trace CSV with ``read_table``; schema violations raise SchemaMismatch.

    The first faulty line is named, as a line-by-line parse meets it. Each
    float column is a strided view of the parsed buffer, without a copy.
    """
    flags, values = read_table(path)
    table, width = memoryview(values), len(TABLE_FIELDS)
    columns = [table[i::width] for i in range(width)]
    return Trace(*columns[:_SUFF_OK], flags, *columns[_SUFF_OK:])


def verify_trace(history: History) -> Certificate:
    """Refold a History's raw columns and compare: its certificate, or TamperDetected.

    Any History will do: a parsed trace or a run's own. TamperDetected names
    the first offending row: the f-chain between consecutive rows is checked
    first, then whether any carried derived column disagrees with
    ``audit.refold`` (suff_ok, then cum_sum, then rate_bound_prefix within a
    row). The certificate's verdicts are the ones the run that wrote the
    trace reached, under the tolerance ``check_tol_for(f0)`` of the first
    row's f0; an empty trace gives ``Certificate.fresh(nan)``.
    """
    chain = zip(itertools.islice(history.f_before, 1, None), history.f_after_y)
    for t, (f, previous) in enumerate(chain, 1):
        if f != previous:
            raise TamperDetected(f"row {t}: f_before does not chain from the previous row")

    suff_ok, cum_sum, bounds, cert = refold(*(getattr(history, name) for name in RAW_FIELDS))
    recorded = zip(history.suff_ok, suff_ok, history.cum_sum, cum_sum, history.rate_bound_prefix, bounds)
    for t, (flag, ok, sum_in, sum_out, bound_in, bound_out) in enumerate(recorded):
        if flag != ok:
            column = "suff_ok flag"
        elif sum_in != sum_out:
            column = "cum_sum"
        elif bound_in != bound_out:
            column = "rate_bound_prefix"
        else:
            continue
        raise TamperDetected(f"row {t}: {column} does not refold")
    return cert
