"""The certificate fold and the trace file's line reader, with the standard library alone.

``refold`` is the one certificate fold: record by record, in Python floats,
it checks every step and the telescoped and rate bounds at every prefix.
A ``traceio.History`` built from raw values is folded with it once, when it
is built (for a run, by ``solve()`` when the loop ends), and carries its
derived columns, which ``traceio.write_trace`` writes as they are. The
checker, ``traceio.verify_trace``, decides a trace file with it: the file
is parsed line by line (``read_table``, whose buffers ``traceio.read_trace``
holds as a History's columns), and the raw columns are refolded and
compared. The run and the checker fold the same doubles (repr()
round-trips them), so an honest trace matches bitwise. The fold is pinned
bit for bit against a plain reference loop kept in the tests.

The per-step and rate-bound formulas, the run's one tolerance and the
``Certificate`` live here too, so the run and the audit share one
definition of each.
"""

from __future__ import annotations

import csv
import itertools
import math
import operator
from array import array
from dataclasses import dataclass

from .errors import DegenerateFit, InsufficientHistory, SchemaMismatch

# The raw fields of a record, in trace column order; everything else is derived.
RAW_FIELDS = ("f_before", "f_after_x", "f_after_y", "gx_norm_sq", "gy_residual", "e_t")

TRACE_HEADER = "t,f_before,f_after_x,f_after_y,gx_norm_sq,gy_residual,e_t,suff_ok,cum_sum,rate_bound_prefix"

_COLUMNS = TRACE_HEADER.split(",")
_SUFF_OK = _COLUMNS.index("suff_ok")
# The float cells of a line, in column order: every column but t and suff_ok.
_FLOAT_COLUMNS = [i for i in range(1, len(_COLUMNS)) if i != _SUFF_OK]
_FLOAT_CELLS = operator.itemgetter(*_FLOAT_COLUMNS)
# Their names: the raw fields, then cum_sum and rate_bound_prefix.
TABLE_FIELDS = tuple(_COLUMNS[i] for i in _FLOAT_COLUMNS)


def check_tol_for(f0: float) -> float:
    """The run's one tolerance, 1e-10 * max(1, |f0|), from its first value.

    Strategies accept steps, and the certificate and trace audit check them,
    against this number; a trace carries f0 in its first row, so the audit
    recovers it from the file alone.
    """
    return 1e-10 * max(1.0, abs(f0))


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


def sufficient_decrease(f, f_next, g_sq, e, tol):
    """f - f_next >= g_sq / (2 e) - tol: the per-step inequality, within tol.

    The one decrease test: strategies accept a step with it, and ``refold``
    certifies every recorded step with it, so both decide alike.
    """
    return f - f_next >= g_sq / (2.0 * e) - tol


def rate_bound(e_max: float, drop: float, steps) -> float:
    """2 e_max drop / steps: the min-gradient rate bound after ``steps`` steps.

    A zero drop gives a zero bound (of the drop's sign) even when ``2 e_max``
    overflows, where the product alone would be inf * 0 = NaN; every other
    value is the plain product.
    """
    return drop if drop == 0.0 else 2.0 * e_max * drop / steps


@dataclass
class Certificate:
    """Aggregate of a record sequence, as ``refold`` computes it.

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


def _parse_row(cells: list[str], index: int, flags: bytearray, values: array) -> str | None:
    """Append one line's suff_ok flag and 8 floats, or return the message for its first fault.

    Checked in this order: field count, suff_ok token, number syntax, t,
    then the raw fields' values (``check_record``'s conditions; only the
    derived cells may be non-finite, and the refold judges them).
    """
    if len(cells) != len(_COLUMNS):
        return f"row {index}: expected {len(_COLUMNS)} fields, got {len(cells)}"
    flag = cells[_SUFF_OK]
    if flag != "0" and flag != "1":
        return f"row {index}: suff_ok must be 0 or 1, got {flag!r}"
    try:
        t = int(cells[0])
        row = list(map(float, _FLOAT_CELLS(cells)))
    except ValueError as exc:
        return f"row {index}: {exc}"
    if t != index:
        return f"row {index}: t={t} out of sequence"
    raw = row[: len(RAW_FIELDS)]
    # one test for the usual valid row: a finite sum means finite fields
    if not (math.isfinite(sum(raw)) and raw[3] >= 0 and raw[4] >= 0 and raw[5] > 0):
        if not all(map(math.isfinite, raw)):
            return f"row {index}: non-finite field"
        try:  # check_record words the failure, if any: finite fields may overflow the sum
            check_record(index, *raw)
        except ValueError as exc:
            return f"row {index}: {exc}"
    flags.append(flag == "1")
    values.extend(row)
    return None


def read_table(path: str) -> tuple[bytearray, array]:
    """Parse and validate a trace CSV: (suff_ok flags as 0/1 bytes, float cells row by row).

    The float cells of row t are ``values[8 t : 8 t + 8]``, in
    ``TABLE_FIELDS`` order. Schema violations, bytes that are not UTF-8
    among them, raise SchemaMismatch naming the first faulty line.
    """
    flags = bytearray()
    values = array("d")
    try:
        with open(path, newline="", encoding="utf-8") as fh:
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
                    raise SchemaMismatch(fault)
    except UnicodeDecodeError:
        # the text reader decodes ahead of the line it parses, so find the line
        raise SchemaMismatch(_first_undecodable_line(path)) from None
    return flags, values


def _first_undecodable_line(path: str) -> str:
    """The fault message for the first line of ``path`` that is not UTF-8."""
    with open(path, "rb") as fh:
        for number, line in enumerate(fh):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as exc:
                where = "header row" if number == 0 else f"row {number - 1}"
                return f"{where}: not UTF-8 text ({exc.reason} at byte {exc.start} of the line)"
    return "not UTF-8 text"


def refold(f_before, f_after_x, f_after_y, gx_norm_sq, gy_residual, e_t, f0: float = math.nan):
    """Check every step and every prefix of a record sequence, one record at a time.

    Takes the raw columns as sequences of Python floats that passed
    ``check_record``: lists, ``array('d')``s or float64 ``memoryview``s,
    strided or not, as a ``traceio.History`` holds them (never numpy
    arrays, whose scalars warn on overflow). Returns (suff_ok, cum_sum,
    rate_bound_prefix, certificate): per row, as a ``bytearray`` of 0/1 and two
    ``array('d')``, the step check, the running sum of ||gx||^2 / (2 e_t)
    and the rate bound 2 e_max (f0 - f_t) / (t + 1); and the whole
    sequence's ``Certificate``, whose telescope_ok and rate_bound_ok say
    both bounds held at every prefix, within ``check_tol_for(f0)``. f0 is
    the first row's f_before (the argument only names an empty sequence's
    start value).
    """
    suff_ok, cum_sum, bounds = bytearray(), array("d"), array("d")
    if len(f_before) == 0:
        return suff_ok, cum_sum, bounds, Certificate.fresh(f0)
    f0 = f_before[0]
    tol = check_tol_for(f0)
    running = e_max = max_gy = 0.0
    e_min = min_g = math.inf
    telescope_ok = rate_bound_ok = True
    vacuous = 0
    rows = zip(f_before, f_after_x, f_after_y, gx_norm_sq, gy_residual, e_t)
    for steps, (f, f_x, f_y, g_sq, gy, e) in enumerate(rows, 1):
        suff_ok.append(sufficient_decrease(f, f_x, g_sq, e, tol) and f_y <= f_x + tol)
        required = g_sq / (2.0 * e)
        running += required
        cum_sum.append(running)
        vacuous += required <= tol
        if e > e_max:
            e_max = e
        if e < e_min:
            e_min = e
        if g_sq < min_g:  # keeps the first of tied minima (0.0 vs -0.0)
            min_g = g_sq
        if gy > max_gy:
            max_gy = gy
        drop = f0 - f_y
        bound = rate_bound(e_max, drop, steps)
        bounds.append(bound)
        if not running <= drop + tol:
            telescope_ok = False
        if not min_g <= bound + tol:
            rate_bound_ok = False
    cert = Certificate(
        f0=f0,
        f_final=f_after_y[-1],
        num_steps=len(suff_ok),
        running_sum=running,
        e_max=e_max,
        e_min=e_min,
        min_grad_sq=min_g,
        max_gy_residual=max_gy,
        telescope_ok=telescope_ok,
        rate_bound_ok=rate_bound_ok,
        all_steps_ok=all(suff_ok),
        vacuous_steps=vacuous,
        grad_floor=math.sqrt(2.0 * e_max * tol),
    )
    return suff_ok, cum_sum, bounds, cert


def fit_slope(gx_norm_sq) -> float:
    """Least-squares slope of log(min-so-far gradient norm) vs log(t + 1).

    A certified run's bound curve has slope exactly -1/2; an actual trace
    may fall faster. Needs at least 10 records, all with positive
    min-so-far norms (a norm of exactly zero means convergence, not a
    power law). The log norms are fitted relative to the first one, which
    leaves the slope unchanged in exact arithmetic and makes a flat running
    minimum's exactly 0.0.
    """
    n = len(gx_norm_sq)
    if n < 10:
        raise InsufficientHistory(f"{n} records; need at least 10")
    norms = list(itertools.accumulate(map(math.sqrt, gx_norm_sq), min))
    if norms[-1] == 0.0:
        raise DegenerateFit("gradient norm hit exactly zero; run converged")
    first = math.log(norms[0])
    log_norms = [math.log(norm) - first for norm in norms]
    log_ts = [math.log(t) for t in range(1, n + 1)]
    # imported here: with fractions and decimal it costs about 6 ms, which
    # the solver side, importing this module for Certificate, need not pay
    import statistics

    return statistics.linear_regression(log_ts, log_norms).slope
