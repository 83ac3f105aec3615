"""Trace files: CSV rows per iteration, refoldable for audit.

The derived columns (suff_ok, cum_sum, rate_bound_prefix) are produced by
``audit.refold``, the one certificate fold, and ``verify_trace`` recomputes
them with it; floats are serialized with repr(), which parses back to the
identical double, so a clean round trip matches bitwise. Any single edited
cell therefore shows up as an exact mismatch (or as a broken f-chain between
consecutive rows). The file format and its line reader live in
``bcdcert.audit``; ``read_trace`` turns what the reader parsed into a
columnar ``Trace`` without a copy. The audit's verdict is a
``Certificate`` equal to the one ``solve()`` returns for the run that wrote
the file.

``read_trace`` requires the six raw columns to be finite; the derived ones
may hold inf (an overflowing sum or bound in an honest run), and only the
refold judges them.

The check tolerance is not stored: it is ``check_tol_for(f0)``, with f0 the
first row's ``f_before``, the same number the run used, so the file alone
determines every derived column.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .audit import RAW_FIELDS, TABLE_FIELDS, TRACE_HEADER, Certificate, read_table, refold, verify
from .certificate import History, IterationRecord, row_blocks


@dataclass(frozen=True)
class TraceRow:
    """One parsed trace line: the raw record plus its recorded derived columns."""

    record: IterationRecord
    cum_sum: float
    rate_bound_prefix: float


class Trace(History):
    """A parsed trace: a History of its raw and suff_ok columns, plus cum_sum and rate_bound_prefix.

    Reads like a list of ``TraceRow``. From ``read_trace``, the float columns
    are views of the one buffer the file was parsed into.
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

    Lines are rendered from the columns with repr(), one ``row_blocks``
    block at a time.
    """
    raw = [getattr(history, name) for name in RAW_FIELDS]
    suff_ok, cum_sum, rate_bound, _ = refold(*map(memoryview, raw))
    columns = raw + [suff_ok, cum_sum, rate_bound]

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
    return Trace(*table[: len(RAW_FIELDS)], flags, cum_sum=table[-2], rate_bound_prefix=table[-1])


def verify_trace(rows: Trace) -> Certificate:
    """Refold a parsed trace with the checker's ``verify``: its certificate, or TamperDetected.

    TamperDetected names the first offending row: the f-chain between
    consecutive rows is checked first, then whether any recorded derived
    column disagrees with recomputation (suff_ok, then cum_sum, then
    rate_bound_prefix within a row). The certificate's verdicts are the ones
    the run that wrote the trace reached, under the tolerance
    ``check_tol_for(f0)`` of the first row's f0; an empty trace gives
    ``Certificate.fresh(nan)``.
    """
    columns = {name: memoryview(getattr(rows, name)) for name in TABLE_FIELDS}
    return verify(memoryview(rows.suff_ok), columns)
