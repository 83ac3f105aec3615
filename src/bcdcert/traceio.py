"""Trace files: CSV rows per iteration, refoldable for audit.

The derived columns (suff_ok, cum_sum, rate_bound_prefix) are produced by
``certificate.fold``, and ``verify_trace`` recomputes them with the same
fold, so a clean round trip matches bitwise: floats are serialized with
repr(), which parses back to the identical double, and the fold performs
the same arithmetic on the same values. Any single edited cell therefore
shows up as an exact mismatch (or as a broken f-chain between consecutive
rows). A parsed trace is columnar (``Trace``) and is audited a whole column
at a time. The audit's verdict is the fold's ``Certificate``, the same
object ``solve()`` returns for the run that wrote the file.

``read_trace`` requires the six raw columns to be finite; the derived ones
may hold inf (an overflowing sum or bound in an honest run), and only the
refold judges them.

The check tolerance is not stored: it is ``check_tol_for(f0)``, with f0 the
first row's ``f_before``, the same number the run used, so the file alone
determines every derived column.
"""

from __future__ import annotations

import csv
import itertools
import json
import os
import tempfile
from array import array
from dataclasses import dataclass

import numpy as np

from .certificate import RAW_FIELDS, Certificate, History, IterationRecord, check_record, fold
from .errors import SchemaMismatch, TamperDetected

TRACE_HEADER = "t,f_before,f_after_x,f_after_y,gx_norm_sq,gy_residual,e_t,suff_ok,cum_sum,rate_bound_prefix"

_COLUMNS = TRACE_HEADER.split(",")
_SUFF_OK = _COLUMNS.index("suff_ok")
# The float cells of a line, in column order: every column but t and suff_ok.
_FLOAT_COLUMNS = [i for i in range(1, len(_COLUMNS)) if i != _SUFF_OK]


@dataclass(frozen=True)
class TraceRow:
    """One parsed trace line: the raw record plus its recorded derived columns."""

    record: IterationRecord
    cum_sum: float
    rate_bound_prefix: float


class Trace(History):
    """A parsed trace: a History of its raw and suff_ok columns, plus cum_sum and rate_bound_prefix.

    Reads like a list of ``TraceRow``.
    """

    __slots__ = ("cum_sum", "rate_bound_prefix")
    _fields = History._fields + __slots__

    def __init__(self, *columns, cum_sum, rate_bound_prefix):
        super().__init__(*columns)
        self.cum_sum = np.asarray(cum_sum, dtype=np.float64)
        self.rate_bound_prefix = np.asarray(rate_bound_prefix, dtype=np.float64)

    def _row(self, t, *values):
        return TraceRow(IterationRecord(t, *values[:7]), *values[7:])


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
    """Write a History as a trace CSV (whole-file atomic).

    Lines are rendered from the columns with repr(), one at a time.
    """
    suff_ok, cum_sum, rate_bound, _ = fold(history)
    columns = [map(str, range(len(history)))]
    columns += [map(repr, getattr(history, name).tolist()) for name in RAW_FIELDS]
    columns.append(("1" if ok else "0" for ok in suff_ok.tolist()))
    columns += [map(repr, cum_sum.tolist()), map(repr, rate_bound.tolist())]
    lines = (",".join(cells) + "\n" for cells in zip(*columns))
    _atomic_write(path, itertools.chain([TRACE_HEADER + "\n"], lines))


def write_json(path: str, payload: dict) -> None:
    """Atomic JSON dump used for summaries; NaN/inf raise instead of writing invalid JSON."""
    _atomic_write(path, [json.dumps(payload, indent=1, sort_keys=True, allow_nan=False) + "\n"])


def _parse_row(cells: list[str], index: int, flags: list, values: array) -> str | None:
    """Append one line's suff_ok flag and 8 floats, checking field count, suff_ok token, number syntax and t.

    On a fault it appends nothing and returns the message.
    """
    if len(cells) != len(_COLUMNS):
        return f"row {index}: expected {len(_COLUMNS)} fields, got {len(cells)}"
    flag = cells[_SUFF_OK]
    if flag != "0" and flag != "1":
        return f"row {index}: suff_ok must be 0 or 1, got {flag!r}"
    try:
        t = int(cells[0])
        row = [float(cells[i]) for i in _FLOAT_COLUMNS]
    except ValueError as exc:
        return f"row {index}: {exc}"
    if t != index:
        return f"row {index}: t={t} out of sequence"
    flags.append(flag == "1")
    values.extend(row)
    return None


def _first_bad_value(table: np.ndarray) -> str | None:
    """The message for the first row (a column of ``table``) whose raw fields are invalid.

    Only the raw fields: the derived cells are left to the refold.
    """
    raw = table[: len(RAW_FIELDS)]
    finite = np.isfinite(raw).all(axis=0)
    # check_record's conditions, a column at a time; it words the first failure
    bad = ~finite | (raw[3] < 0) | (raw[4] < 0) | ~(raw[5] > 0)
    for t in np.flatnonzero(bad).tolist():
        if not finite[t]:
            return f"row {t}: non-finite field"
        try:
            check_record(t, *raw[:, t].tolist())
        except ValueError as exc:
            return f"row {t}: {exc}"
    return None


def read_trace(path: str) -> Trace:
    """Parse and validate a trace CSV; schema violations raise SchemaMismatch.

    The first faulty line is named, as a line-by-line parse meets it: the
    numbers of the lines before a line that does not parse are checked
    before that line's fault is reported.
    """
    flags: list[bool] = []
    values = array("d")
    fault = None
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaMismatch("empty file, header row missing") from None
        if header != _COLUMNS:
            raise SchemaMismatch(f"bad header: {','.join(header)!r}")
        for index, cells in enumerate(reader):
            fault = _parse_row(cells, index, flags, values)
            if fault is not None:
                break
    table = np.array(values, dtype=np.float64).reshape(len(flags), len(_FLOAT_COLUMNS)).T
    fault = _first_bad_value(table) or fault
    if fault is not None:
        raise SchemaMismatch(fault)
    return Trace(*table[: len(RAW_FIELDS)], flags, cum_sum=table[-2], rate_bound_prefix=table[-1])


def verify_trace(rows: Trace) -> Certificate:
    """Refold a parsed trace and return its certificate, or raise TamperDetected.

    TamperDetected names the first offending row: the f-chain between
    consecutive rows is checked first, then whether any recorded derived
    column disagrees with recomputation (suff_ok, then cum_sum, then
    rate_bound_prefix within a row). Otherwise the result is ``fold``'s
    certificate of the rows, whose verdicts (the step checks and the
    telescoped and rate bounds at every prefix) are the ones the run that
    wrote the trace reached; an empty trace gives ``Certificate.fresh(nan)``.

    Every check uses ``check_tol_for(f0)`` with f0 taken from the first row,
    the tolerance the run that wrote the trace used.
    """
    broken = rows.f_before[1:] != rows.f_after_y[:-1]
    if broken.any():
        t = int(np.argmax(broken)) + 1
        raise TamperDetected(f"row {t}: f_before does not chain from the previous row")

    suff_ok, cum_sum, rate_bound, cert = fold(rows)
    mismatches = (
        ("suff_ok flag", suff_ok != rows.suff_ok),
        ("cum_sum", rows.cum_sum != cum_sum),
        ("rate_bound_prefix", rows.rate_bound_prefix != rate_bound),
    )
    bad = mismatches[0][1] | mismatches[1][1] | mismatches[2][1]
    if bad.any():
        t = int(np.argmax(bad))
        column = next(name for name, differs in mismatches if differs[t])
        raise TamperDetected(f"row {t}: {column} does not refold")
    return cert
