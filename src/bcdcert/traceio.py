"""Trace files: CSV rows per iteration, refoldable for audit.

The derived columns (suff_ok, cum_sum, rate_bound_prefix) are produced by
``fold_records``, and ``verify_trace`` recomputes them with the same helper,
so a clean round trip matches bitwise: floats are serialized with repr(),
which parses back to the identical double, and the fold performs the same
arithmetic on the same values. Any single edited cell therefore shows up as
an exact mismatch (or as a broken f-chain between consecutive rows).

The check tolerance is not stored: it is ``check_tol_for(f0)``, with f0 the
first row's ``f_before``, the same number the run used, so the file alone
determines every derived column.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
import tempfile
from dataclasses import dataclass

from .certificate import (
    Certificate,
    IterationRecord,
    accumulate,
    check_step,
    check_tol_for,
    fit_rate,
)
from .errors import DegenerateFit, InsufficientHistory, SchemaMismatch, TamperDetected

TRACE_HEADER = "t,f_before,f_after_x,f_after_y,gx_norm_sq,gy_residual,e_t,suff_ok,cum_sum,rate_bound_prefix"

_COLUMNS = TRACE_HEADER.split(",")


@dataclass
class TraceRow:
    """One parsed trace line: the raw record plus its recorded derived columns."""

    record: IterationRecord
    cum_sum: float
    rate_bound_prefix: float


@dataclass
class TraceVerdict:
    """Outcome of refolding a trace. Produced only if no tampering was found."""

    num_rows: int
    check_tol: float
    all_steps_ok: bool
    telescope_ok: bool
    rate_bound_ok: bool
    certificate: Certificate | None
    slope: float | None
    slope_note: str

    def passed(self) -> bool:
        return self.all_steps_ok and self.telescope_ok and self.rate_bound_ok


def fold_records(records):
    """Fold records into per-row derived columns and the final certificate.

    Returns (derived, certificate) where derived[t] is the tuple
    (suff_ok, cum_sum, rate_bound_prefix) after folding record t, each step
    checked with ``check_tol_for`` of the first record's f_before. The fold
    sets suff_ok on the records it is given; pass copies to keep an existing
    history untouched. certificate is None for an empty sequence.
    """
    derived = []
    cert = None
    for rec in records:
        if cert is None:
            cert = Certificate.fresh(rec.f_before)
            check_tol = check_tol_for(rec.f_before)
        ok = check_step(rec, check_tol)
        cert = accumulate(cert, rec)
        derived.append((ok, cert.running_sum, cert.rate_bound))
    return derived, cert


def _atomic_write(path: str, text: str) -> None:
    dirname = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=dirname, prefix=".tmp-trace-")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _row_cells(rec: IterationRecord, ok: bool, cum: float, rb: float) -> list[str]:
    return [
        str(rec.t),
        repr(rec.f_before),
        repr(rec.f_after_x),
        repr(rec.f_after_y),
        repr(rec.gx_norm_sq),
        repr(rec.gy_residual),
        repr(rec.e_t),
        "1" if ok else "0",
        repr(cum),
        repr(rb),
    ]


def write_trace(path: str, history) -> None:
    """Write the iteration history as a trace CSV (whole-file atomic)."""
    records = [dataclasses.replace(rec) for rec in history]
    derived, _ = fold_records(records)
    lines = [TRACE_HEADER]
    for rec, (ok, cum, rb) in zip(records, derived):
        lines.append(",".join(_row_cells(rec, ok, cum, rb)))
    _atomic_write(path, "\n".join(lines) + "\n")


def write_json(path: str, payload: dict) -> None:
    """Atomic JSON dump used for summaries; NaN/inf raise instead of writing invalid JSON."""
    _atomic_write(path, json.dumps(payload, indent=1, sort_keys=True, allow_nan=False) + "\n")


def _parse_row(cells: list[str], index: int) -> TraceRow:
    where = f"row {index}"
    if len(cells) != len(_COLUMNS):
        raise SchemaMismatch(f"{where}: expected {len(_COLUMNS)} fields, got {len(cells)}")
    if cells[7] not in ("0", "1"):
        raise SchemaMismatch(f"{where}: suff_ok must be 0 or 1, got {cells[7]!r}")
    try:
        t = int(cells[0])
        floats = [float(c) for c in cells[1:7] + cells[8:]]
    except ValueError as exc:
        raise SchemaMismatch(f"{where}: {exc}") from None
    if t != index:
        raise SchemaMismatch(f"{where}: t={t} out of sequence")
    if not all(math.isfinite(v) for v in floats):
        raise SchemaMismatch(f"{where}: non-finite field")
    try:
        rec = IterationRecord(
            t=t,
            f_before=floats[0],
            f_after_x=floats[1],
            f_after_y=floats[2],
            gx_norm_sq=floats[3],
            gy_residual=floats[4],
            e_t=floats[5],
            suff_ok=cells[7] == "1",
        )
    except ValueError as exc:
        raise SchemaMismatch(f"{where}: {exc}") from None
    return TraceRow(record=rec, cum_sum=floats[6], rate_bound_prefix=floats[7])


def read_trace(path: str) -> list[TraceRow]:
    """Parse and validate a trace CSV; schema violations raise SchemaMismatch."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaMismatch("empty file, header row missing") from None
        if header != _COLUMNS:
            raise SchemaMismatch(f"bad header: {','.join(header)!r}")
        return [_parse_row(cells, i) for i, cells in enumerate(reader)]


def verify_trace(rows: list[TraceRow]) -> TraceVerdict:
    """Refold a parsed trace and check it end to end.

    Raises TamperDetected (naming the first offending row) if the f-chain
    between consecutive rows is broken or any recorded derived column
    disagrees with recomputation. Otherwise returns a TraceVerdict carrying
    the prefix telescope check, the prefix min-gradient rate-bound check, and
    the fitted log-log slope of the min-so-far gradient norm.

    Every check uses ``check_tol_for(f0)`` with f0 taken from the first row,
    the tolerance the run that wrote the trace used.
    """
    if not rows:
        return TraceVerdict(
            num_rows=0,
            check_tol=math.nan,
            all_steps_ok=True,
            telescope_ok=True,
            rate_bound_ok=True,
            certificate=None,
            slope=None,
            slope_note="insufficient history",
        )
    f0 = rows[0].record.f_before
    check_tol = check_tol_for(f0)

    for t in range(1, len(rows)):
        if rows[t].record.f_before != rows[t - 1].record.f_after_y:
            raise TamperDetected(
                f"row {t}: f_before does not chain from the previous row"
            )

    records = [dataclasses.replace(row.record) for row in rows]
    derived, cert = fold_records(records)

    telescope_ok = True
    rate_ok = True
    min_sq = math.inf
    for row, rec, (ok, cum, rb) in zip(rows, records, derived):
        if row.record.suff_ok != ok:
            raise TamperDetected(f"row {rec.t}: suff_ok flag does not refold")
        if row.cum_sum != cum:
            raise TamperDetected(f"row {rec.t}: cum_sum does not refold")
        if row.rate_bound_prefix != rb:
            raise TamperDetected(f"row {rec.t}: rate_bound_prefix does not refold")
        min_sq = min(min_sq, rec.gx_norm_sq)
        if cum > (f0 - rec.f_after_y) + check_tol:
            telescope_ok = False
        if min_sq > rb + check_tol:
            rate_ok = False
    cert.telescope_ok = telescope_ok

    slope = None
    try:
        slope = fit_rate(records)
        note = "ok"
    except InsufficientHistory:
        note = "insufficient history"
    except DegenerateFit as exc:
        note = str(exc)

    return TraceVerdict(
        num_rows=len(rows),
        check_tol=check_tol,
        all_steps_ok=cert.all_steps_ok,
        telescope_ok=telescope_ok,
        rate_bound_ok=rate_ok,
        certificate=cert,
        slope=slope,
        slope_note=note,
    )
