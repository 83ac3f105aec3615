import glob
import math
import os

import pytest

from bcdcert.audit import RAW_FIELDS, check_tol_for, fit_slope
from bcdcert.errors import InsufficientHistory, SchemaMismatch, TamperDetected
from bcdcert.solver import SolverConfig, solve
from bcdcert.traceio import (
    TRACE_HEADER,
    History,
    read_trace,
    verify_trace,
    write_trace,
)

from conftest import zoo_problem, zoo_start
from test_fold import fold_history


def raw_rows(records):
    """The raw fields of records, in order, as from_rows takes them."""
    return [tuple(getattr(r, name) for name in RAW_FIELDS) for r in records]


def run_and_write(tmp_path, seed=5, max_iters=40, name="run.trace.csv"):
    obj = zoo_problem("coupled_quadratic", seed=seed)
    res = solve(obj, zoo_start(obj, seed), SolverConfig(max_iters=max_iters))
    path = str(tmp_path / name)
    write_trace(path, res.history)
    return res, path


def test_header_string_is_frozen():
    # the exact byte sequence downstream tooling greps for
    assert TRACE_HEADER == (
        "t,f_before,f_after_x,f_after_y,gx_norm_sq,gy_residual,"
        "e_t,suff_ok,cum_sum,rate_bound_prefix"
    )


def test_round_trip_is_bitwise(tmp_path):
    res, path = run_and_write(tmp_path)
    rows = read_trace(path)
    assert len(rows) == len(res.history)
    for row, rec in zip(rows, res.history):
        got = row.record
        assert (got.t, got.suff_ok) == (rec.t, rec.suff_ok)
        # repr round-trip: parsed doubles are the doubles that were written
        assert got.f_before == rec.f_before
        assert got.f_after_x == rec.f_after_x
        assert got.f_after_y == rec.f_after_y
        assert got.gx_norm_sq == rec.gx_norm_sq
        assert got.gy_residual == rec.gy_residual
        assert got.e_t == rec.e_t


def test_fresh_trace_verifies_to_the_runs_certificate(tmp_path):
    res, path = run_and_write(tmp_path)
    cert = verify_trace(read_trace(path))
    # one verdict: the audit returns the very certificate the run folded
    assert cert == res.certificate and cert.passed()
    assert cert.num_steps == len(res.history)
    # the audit recovers the run's tolerance from the file alone
    assert check_tol_for(cert.f0) == res.check_tol


def test_derived_columns_match_a_refold(tmp_path):
    res, path = run_and_write(tmp_path)
    rows = read_trace(path)
    suff_ok, cum_sum, rate_bound, cert = fold_history(History.from_rows(raw_rows(r.record for r in rows)))
    derived = zip(suff_ok, cum_sum, rate_bound)
    for row, (ok, cum, rb) in zip(rows, derived):
        assert row.record.suff_ok == ok
        assert row.cum_sum == cum
        assert row.rate_bound_prefix == rb
    assert cert.f_final == res.certificate.f_final


def test_rows_read_like_a_list(tmp_path):
    res, path = run_and_write(tmp_path)
    rows = read_trace(path)
    listed = list(rows)
    assert rows == listed and rows[-1] == listed[-1] and rows[2:5] == listed[2:5]
    assert [row.record for row in rows] == list(res.history)
    for row in (rows[0], listed[-1]):
        assert type(row.record.t) is int and type(row.record.suff_ok) is bool
        assert type(row.cum_sum) is float and type(row.rate_bound_prefix) is float
        assert all(type(getattr(row.record, name)) is float for name in COLS[1:7])
    with pytest.raises(IndexError):
        rows[len(rows)]


def test_a_history_rebuilt_from_its_records_writes_the_same_bytes(tmp_path):
    res, path = run_and_write(tmp_path)
    again = str(tmp_path / "records.trace.csv")
    write_trace(again, History.from_rows(raw_rows(res.history)))
    assert open(again, "rb").read() == open(path, "rb").read()


def test_empty_trace_is_trivially_valid(tmp_path):
    path = str(tmp_path / "empty.trace.csv")
    write_trace(path, History.from_rows([]))
    rows = read_trace(path)
    assert rows == []
    cert = verify_trace(rows)
    assert cert.passed() and cert.num_steps == 0
    assert math.isnan(cert.f0) and math.isnan(cert.rate_bound)
    with pytest.raises(InsufficientHistory):
        fit_slope(rows.gx_norm_sq)


def test_no_temp_files_left_behind(tmp_path):
    run_and_write(tmp_path)
    assert glob.glob(str(tmp_path / ".tmp-*")) == []


# --- tampering --------------------------------------------------------------


def _mutate_cell(path, out, row, col, new_text):
    lines = open(path).read().splitlines()
    cells = lines[1 + row].split(",")
    cells[col] = new_text
    lines[1 + row] = ",".join(cells)
    with open(out, "w") as fh:
        fh.write("\n".join(lines) + "\n")


COLS = TRACE_HEADER.split(",")


@pytest.mark.parametrize(
    "col,delta",
    [
        ("f_before", 1e-9),
        ("f_after_y", 1e-9),
        ("gx_norm_sq", 1e-9),
        ("e_t", 1e-9),
        ("cum_sum", 1e-12),
        ("rate_bound_prefix", 1e-12),
    ],
)
def test_single_cell_edits_are_detected(tmp_path, col, delta):
    _, path = run_and_write(tmp_path)
    bad = str(tmp_path / "bad.trace.csv")
    idx = COLS.index(col)
    old = open(path).read().splitlines()[6].split(",")[idx]
    _mutate_cell(path, bad, 5, idx, repr(float(old) + delta))
    with pytest.raises(TamperDetected, match="row"):
        verify_trace(read_trace(bad))


def test_last_row_f_after_y_edit_is_detected(tmp_path):
    # no successor row to chain against: caught by the rate_bound refold
    res, path = run_and_write(tmp_path)
    bad = str(tmp_path / "bad.trace.csv")
    last = len(res.history) - 1
    idx = COLS.index("f_after_y")
    old = open(path).read().splitlines()[1 + last].split(",")[idx]
    _mutate_cell(path, bad, last, idx, repr(float(old) - 1e-9))
    with pytest.raises(TamperDetected):
        verify_trace(read_trace(bad))


def test_first_row_f_before_edit_is_detected(tmp_path):
    # changes f0, which every recorded rate_bound_prefix depends on
    _, path = run_and_write(tmp_path)
    bad = str(tmp_path / "bad.trace.csv")
    idx = COLS.index("f_before")
    old = open(path).read().splitlines()[1].split(",")[idx]
    _mutate_cell(path, bad, 0, idx, repr(float(old) + 1e-9))
    with pytest.raises(TamperDetected):
        verify_trace(read_trace(bad))


GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "rosenbrock500.trace.csv")


def test_an_unedited_trace_rewrites_byte_for_byte(tmp_path):
    out = str(tmp_path / "rewritten.trace.csv")
    write_trace(out, read_trace(GOLDEN))
    assert open(out, "rb").read() == open(GOLDEN, "rb").read()


def test_a_rewrite_keeps_an_edit_visible(tmp_path):
    # the writer writes the columns it was given; only the checker derives a verdict
    edited = str(tmp_path / "edited.trace.csv")
    idx = COLS.index("gx_norm_sq")
    old = open(GOLDEN).read().splitlines()[1 + 10].split(",")[idx]
    _mutate_cell(GOLDEN, edited, 10, idx, repr(float(old) / 2))
    with pytest.raises(TamperDetected, match="row 10: cum_sum"):
        verify_trace(read_trace(edited))
    out = str(tmp_path / "rewritten.trace.csv")
    write_trace(out, read_trace(edited))
    assert open(out, "rb").read() == open(edited, "rb").read()
    with pytest.raises(TamperDetected, match="row 10: cum_sum"):
        verify_trace(read_trace(out))


def test_suff_ok_flip_is_detected(tmp_path):
    _, path = run_and_write(tmp_path)
    bad = str(tmp_path / "bad.trace.csv")
    _mutate_cell(path, bad, 3, COLS.index("suff_ok"), "0")
    with pytest.raises(TamperDetected, match="suff_ok"):
        verify_trace(read_trace(bad))


# --- schema violations ------------------------------------------------------


def test_bad_header(tmp_path):
    _, path = run_and_write(tmp_path)
    text = open(path).read().replace("gx_norm_sq", "gx_sq")
    bad = str(tmp_path / "bad.csv")
    open(bad, "w").write(text)
    with pytest.raises(SchemaMismatch, match="header"):
        read_trace(bad)


def test_missing_file_content(tmp_path):
    bad = str(tmp_path / "empty.csv")
    open(bad, "w").write("")
    with pytest.raises(SchemaMismatch, match="header"):
        read_trace(bad)


def test_wrong_field_count(tmp_path):
    _, path = run_and_write(tmp_path)
    lines = open(path).read().splitlines()
    lines[2] = lines[2].rsplit(",", 1)[0]  # drop the last column
    bad = str(tmp_path / "bad.csv")
    open(bad, "w").write("\n".join(lines) + "\n")
    with pytest.raises(SchemaMismatch, match="fields"):
        read_trace(bad)


def test_out_of_sequence_t(tmp_path):
    _, path = run_and_write(tmp_path)
    bad = str(tmp_path / "bad.csv")
    _mutate_cell(path, bad, 4, 0, "9")
    with pytest.raises(SchemaMismatch, match="sequence"):
        read_trace(bad)


def test_unparseable_number(tmp_path):
    _, path = run_and_write(tmp_path)
    bad = str(tmp_path / "bad.csv")
    _mutate_cell(path, bad, 2, 1, "abc")
    with pytest.raises(SchemaMismatch):
        read_trace(bad)


def test_non_finite_cell(tmp_path):
    _, path = run_and_write(tmp_path)
    bad = str(tmp_path / "bad.csv")
    _mutate_cell(path, bad, 2, 1, "nan")
    with pytest.raises(SchemaMismatch, match="finite"):
        read_trace(bad)


def test_bad_suff_ok_token(tmp_path):
    _, path = run_and_write(tmp_path)
    bad = str(tmp_path / "bad.csv")
    _mutate_cell(path, bad, 2, COLS.index("suff_ok"), "2")
    with pytest.raises(SchemaMismatch, match="suff_ok"):
        read_trace(bad)


def test_negative_e_t_cell(tmp_path):
    _, path = run_and_write(tmp_path)
    bad = str(tmp_path / "bad.csv")
    _mutate_cell(path, bad, 2, COLS.index("e_t"), "-1.0")
    with pytest.raises(SchemaMismatch):
        read_trace(bad)


def test_writer_output_ends_with_newline(tmp_path):
    _, path = run_and_write(tmp_path)
    assert open(path).read().endswith("\n")
    assert os.path.getsize(path) > 0
