"""Which fault the trace audit names first, and in which row.

When a trace breaks several rules at once, ``read_trace`` and
``verify_trace`` report exactly one of them. These pins fix that choice:
the f-chain before any derived column; within a row suff_ok, then cum_sum,
then rate_bound_prefix; the lowest bad row first; and for schema faults the
row and message a row-by-row parse gives.
"""

import pytest

from bcdcert.errors import SchemaMismatch, TamperDetected
from bcdcert.solver import SolverConfig, solve
from bcdcert.traceio import TRACE_HEADER, read_trace, verify_trace, write_trace

from conftest import zoo_problem, zoo_start

COLS = TRACE_HEADER.split(",")


@pytest.fixture(scope="module")
def honest(tmp_path_factory):
    obj = zoo_problem("coupled_quadratic", seed=5)
    res = solve(obj, zoo_start(obj, 5), SolverConfig(max_iters=40))
    assert len(res.history) > 30 and res.certificate.passed()
    path = tmp_path_factory.mktemp("audit") / "honest.trace.csv"
    write_trace(str(path), res.history)
    return path.read_text().splitlines()


def edited(tmp_path, lines, edits):
    """Write ``lines`` with cells replaced: edits maps (row, column) to a string or a function of the old one."""
    lines = list(lines)
    for (row, col), new in edits.items():
        cells = lines[1 + row].split(",")
        idx = COLS.index(col)
        cells[idx] = new(cells[idx]) if callable(new) else new
        lines[1 + row] = ",".join(cells)
    path = tmp_path / "edited.trace.csv"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def nudge(delta):
    return lambda old: repr(float(old) + delta)


def tamper(tmp_path, lines, edits):
    rows = read_trace(edited(tmp_path, lines, edits))
    with pytest.raises(TamperDetected) as info:
        verify_trace(rows)
    return str(info.value)


def schema(tmp_path, lines, edits):
    with pytest.raises(SchemaMismatch) as info:
        read_trace(edited(tmp_path, lines, edits))
    return str(info.value)


# --- verify_trace -------------------------------------------------------------


def test_a_broken_chain_is_reported_before_any_derived_column(tmp_path, honest):
    msg = tamper(tmp_path, honest, {
        (2, "cum_sum"): nudge(1e-12),
        (3, "suff_ok"): "0",
        (9, "f_before"): nudge(1e-9),
    })
    assert msg == "row 9: f_before does not chain from the previous row"


def test_the_lowest_broken_link_is_named(tmp_path, honest):
    msg = tamper(tmp_path, honest, {
        (20, "f_after_y"): nudge(1e-9),
        (12, "f_after_y"): nudge(1e-9),
    })
    assert msg == "row 13: f_before does not chain from the previous row"


@pytest.mark.parametrize(
    "edits,expected",
    [
        ({"suff_ok": "0", "cum_sum": nudge(1e-12), "rate_bound_prefix": nudge(1e-12)},
         "suff_ok flag does not refold"),
        ({"cum_sum": nudge(1e-12), "rate_bound_prefix": nudge(1e-12)}, "cum_sum does not refold"),
        ({"rate_bound_prefix": nudge(1e-12)}, "rate_bound_prefix does not refold"),
    ],
    ids=["suff_ok", "cum_sum", "rate_bound_prefix"],
)
def test_within_a_row_suff_ok_then_cum_sum_then_rate_bound(tmp_path, honest, edits, expected):
    msg = tamper(tmp_path, honest, {(6, col): new for col, new in edits.items()})
    assert msg == f"row 6: {expected}"


def test_the_lowest_bad_row_wins_over_the_column_order(tmp_path, honest):
    msg = tamper(tmp_path, honest, {
        (7, "suff_ok"): "0",
        (4, "rate_bound_prefix"): nudge(1e-12),
        (30, "cum_sum"): nudge(1e-12),
    })
    assert msg == "row 4: rate_bound_prefix does not refold"


def test_an_e_t_edit_is_named_at_its_own_row(tmp_path, honest):
    # row 11's gradient is too small for the nudge to move cum_sum, but the
    # nudged e_t is the running e_max there, so the rate bound moves
    msg = tamper(tmp_path, honest, {(11, "e_t"): nudge(1e-9)})
    assert msg == "row 11: rate_bound_prefix does not refold"


# --- read_trace ---------------------------------------------------------------


@pytest.mark.parametrize("token", ["1.0", " 1", "true", "", "01"])
def test_a_suff_ok_token_other_than_0_or_1(tmp_path, honest, token):
    msg = schema(tmp_path, honest, {(3, "suff_ok"): token})
    assert msg == f"row 3: suff_ok must be 0 or 1, got {token!r}"


def test_a_short_row(tmp_path, honest):
    lines = list(honest)
    lines[1 + 5] = lines[1 + 5].rsplit(",", 1)[0]
    path = tmp_path / "short.trace.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaMismatch) as info:
        read_trace(str(path))
    assert str(info.value) == "row 5: expected 10 fields, got 9"


@pytest.mark.parametrize("col", ["f_before", "gy_residual", "cum_sum", "rate_bound_prefix"])
@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e999"])
def test_a_non_finite_cell(tmp_path, honest, col, token):
    assert schema(tmp_path, honest, {(8, col): token}) == "row 8: non-finite field"


@pytest.mark.parametrize("col", ["gx_norm_sq", "gy_residual"])
def test_a_negative_norm(tmp_path, honest, col):
    msg = schema(tmp_path, honest, {(8, col): "-1e-300"})
    assert msg == "row 8: record 8 has negative norms"


@pytest.mark.parametrize("token", ["0.0", "-0.0", "-2.5"])
def test_a_non_positive_e_t(tmp_path, honest, token):
    msg = schema(tmp_path, honest, {(8, "e_t"): token})
    assert msg == f"row 8: record 8 has e_t = {float(token)!r}, must be > 0"


def test_t_out_of_sequence(tmp_path, honest):
    assert schema(tmp_path, honest, {(4, "t"): "9"}) == "row 4: t=9 out of sequence"


def test_an_unparseable_cell_names_its_row(tmp_path, honest):
    msg = schema(tmp_path, honest, {(2, "f_after_x"): "abc"})
    assert msg == "row 2: could not convert string to float: 'abc'"


@pytest.mark.parametrize(
    "edits,expected",
    [
        # a value check in an earlier row beats a parse fault in a later one
        ({(2, "f_before"): "nan", (5, "suff_ok"): "2"}, "row 2: non-finite field"),
        ({(1, "gx_norm_sq"): "-1.0", (3, "t"): "7"}, "row 1: record 1 has negative norms"),
        ({(6, "e_t"): "0.0", (9, "f_after_y"): "x"}, "row 6: record 6 has e_t = 0.0, must be > 0"),
        # and a parse fault in an earlier row beats a value check in a later one
        ({(1, "suff_ok"): "2", (2, "e_t"): "0.0"}, "row 1: suff_ok must be 0 or 1, got '2'"),
        ({(3, "t"): "0", (4, "f_before"): "inf"}, "row 3: t=0 out of sequence"),
        # within a row: token, then parse, then t, then finiteness, then the record's own checks
        ({(4, "suff_ok"): "2", (4, "f_before"): "x"}, "row 4: suff_ok must be 0 or 1, got '2'"),
        ({(4, "t"): "x", (4, "f_before"): "y"}, "row 4: invalid literal for int() with base 10: 'x'"),
        ({(4, "t"): "5", (4, "f_before"): "nan"}, "row 4: t=5 out of sequence"),
        ({(4, "e_t"): "nan", (4, "gx_norm_sq"): "-1.0"}, "row 4: non-finite field"),
        ({(4, "e_t"): "0.0", (4, "gx_norm_sq"): "-1.0"}, "row 4: record 4 has negative norms"),
    ],
    ids=["finite<token", "negative<t", "e_t<parse", "token<e_t", "t<finite",
         "token<parse", "int<float", "t<finite-same-row", "finite<negative", "negative<e_t"],
)
def test_the_first_schema_fault_in_row_order_is_named(tmp_path, honest, edits, expected):
    assert schema(tmp_path, honest, edits) == expected
