"""``audit.refold``, the certificate fold, against a plain record-by-record loop, bit for bit.

``reference_fold`` is the certificate fold written the obvious way: one
record at a time, Python floats, running sum from 0.0, max from 0.0 and min
from +inf, and a zero drop bounding the rate at that zero (``2 e_max`` may
overflow, and inf * 0 is not a bound). ``refold``, fed a History's raw
columns as a History is folded when it is built (``array('d')`` slices of
the flat rows), must reproduce every derived column and every certificate field
it computes exactly, including the sign of a zero. So must the columns and
the certificate a ``solve()`` run carries, which come from its one fold.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcdcert.audit import RAW_FIELDS, Certificate, check_tol_for, refold
from bcdcert.solver import SolverConfig, StopReason, solve
from bcdcert.traceio import History, verify_trace

from conftest import ALL_COMBOS, BreaksAtCall, zoo_problem, zoo_start


def reference_fold(rows):
    """(suff_ok, cum_sum, rate_bound_prefix, fields) of (f_before, ..., e_t) rows, one row at a time."""
    suff, cums, rates = [], [], []
    f0 = rows[0][0]
    tol = check_tol_for(f0)
    running_sum, e_max, e_min, min_g, max_gy = 0.0, 0.0, math.inf, math.inf, 0.0
    telescope_ok = rate_bound_ok = all_steps_ok = True
    vacuous_steps = 0
    for t, (f_before, f_after_x, f_after_y, g_sq, gy, e) in enumerate(rows):
        ok = f_before - f_after_x >= g_sq / (2.0 * e) - tol and f_after_y <= f_after_x + tol
        running_sum = running_sum + g_sq / (2.0 * e)
        vacuous_steps += g_sq / (2.0 * e) <= tol
        e_max, e_min = max(e_max, e), min(e_min, e)
        min_g, max_gy = min(min_g, g_sq), max(max_gy, gy)
        drop = f0 - f_after_y
        rate = drop if drop == 0.0 else 2.0 * e_max * drop / (t + 1)
        telescope_ok = telescope_ok and running_sum <= drop + tol
        rate_bound_ok = rate_bound_ok and min_g <= rate + tol
        all_steps_ok = all_steps_ok and ok
        suff.append(ok)
        cums.append(running_sum)
        rates.append(rate)
    fields = {
        "f0": f0, "f_final": rows[-1][2], "num_steps": len(rows), "running_sum": running_sum,
        "e_max": e_max, "e_min": e_min, "min_grad_sq": min_g, "max_gy_residual": max_gy,
        "telescope_ok": telescope_ok, "rate_bound_ok": rate_bound_ok, "all_steps_ok": all_steps_ok,
        "vacuous_steps": vacuous_steps, "grad_floor": math.sqrt(2.0 * e_max * tol),
    }
    return suff, cums, rates, fields


def bits(values):
    """Each float's exact identity: the sign of a zero counts, every NaN is one value."""
    return ["nan" if math.isnan(v) else v.hex() for v in values]


def fold_history(history, *f0):
    """``refold`` of a History's raw columns, as a History is folded when it is built."""
    return refold(*(getattr(history, name) for name in RAW_FIELDS), *f0)


def assert_matches_reference(folded, rows):
    """``folded``, a fold's (suff_ok, cum_sum, rate_bound_prefix, certificate) of ``rows``, is the reference's bit for bit."""
    suff_ok, cum_sum, rate_bound, cert = folded
    ref_suff, ref_cum, ref_rate, fields = reference_fold(rows)
    assert list(suff_ok) == ref_suff
    assert bits(cum_sum) == bits(ref_cum)
    assert bits(rate_bound) == bits(ref_rate)
    for name, want in fields.items():
        got = getattr(cert, name)
        assert type(got) is type(want), name
        if isinstance(want, float):
            assert bits([got]) == bits([want]), name
        else:
            assert got == want, name
    assert not cert.invalidated
    return suff_ok, cert


def assert_fold_matches_reference(rows):
    return assert_matches_reference(fold_history(History.from_rows(rows)), rows)


def boundary_f_after_x(f_before, need):
    """The largest f_after_x with f_before - f_after_x >= need: a step exactly at its tolerance."""
    lo = hi = f_before - need
    step = max(abs(f_before), abs(need), 1.0) * 2.0**-50
    while not f_before - lo >= need:
        lo -= step
        step *= 2.0
    while f_before - hi >= need:
        hi += step
        step *= 2.0
    # f_before - x falls as x rises, so bisect down to adjacent doubles
    while True:
        mid = lo + (hi - lo) / 2.0
        if mid in (lo, hi):
            return lo
        if f_before - mid >= need:
            lo = mid
        else:
            hi = mid


@st.composite
def chained_rows(draw, max_len=40):
    """A chained history whose steps sit on, inside or just outside the step check's tolerance."""
    n = draw(st.integers(1, max_len))
    f = draw(st.floats(-1e4, 1e4))
    tol = check_tol_for(f)
    rows = []
    for _ in range(n):
        g_sq = draw(st.sampled_from([0.0, -0.0]) | st.floats(0.0, 1e3))
        e = draw(st.floats(1e-3, 1e3))
        need = g_sq / (2.0 * e) - tol
        step = draw(st.sampled_from(["tie", "short", "slack", "free"]))
        if step == "free":
            fax = draw(st.floats(-1e4, 1e4))
        else:
            fax = boundary_f_after_x(f, need)
            if step == "short":
                fax = math.nextafter(fax, math.inf)
            elif step == "slack":
                fax -= draw(st.floats(0.0, 10.0))
        y_step = draw(st.sampled_from(["stay", "tie", "over", "down"]))
        if y_step == "stay":
            fay = fax
        elif y_step == "tie":
            fay = fax + tol
        elif y_step == "over":
            fay = math.nextafter(fax + tol, math.inf)
        else:
            fay = fax - draw(st.floats(0.0, 1.0))
        gy = draw(st.sampled_from([0.0, -0.0]) | st.floats(0.0, 1e-6))
        rows.append((f, fax, fay, g_sq, gy, e))
        f = fay
    return rows


finite = st.floats(allow_nan=False, allow_infinity=False)
nonneg = st.sampled_from([0.0, -0.0]) | st.floats(min_value=0.0, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
raw_rows = st.lists(st.tuples(finite, finite, finite, nonneg, nonneg, positive), min_size=1, max_size=30)


@settings(deadline=None, max_examples=200)
@given(chained_rows())
def test_fold_matches_the_loop_on_steps_at_the_tolerance(rows):
    assert_fold_matches_reference(rows)


@settings(deadline=None, max_examples=200)
@given(raw_rows)
def test_fold_matches_the_loop_on_any_valid_rows(rows):
    # unchained and extreme: sums and rate bounds overflow to inf, never to NaN
    assert_fold_matches_reference(rows)
    _, cum_sum, rate_bound, _ = fold_history(History.from_rows(rows))
    assert not np.isnan(cum_sum).any() and not np.isnan(rate_bound).any()


def test_fold_of_one_row():
    suff_ok, cert = assert_fold_matches_reference([(2.0, 0.0, 0.0, 8.0, 0.0, 2.0)])
    assert list(suff_ok) == [True] and cert.num_steps == 1


def test_fold_of_nothing_is_the_fresh_certificate():
    suff_ok, cum_sum, rate_bound, cert = fold_history(History.from_rows([]), 3.5)
    assert len(suff_ok) == len(cum_sum) == len(rate_bound) == 0
    assert cert == Certificate.fresh(3.5)
    assert math.isnan(fold_history(History.from_rows([]))[3].f0)


def test_ties_at_the_tolerance_pass_and_one_ulp_beyond_fails():
    f0, g_sq, e = 1.0, 0.5, 0.25
    tol = check_tol_for(f0)
    fax = boundary_f_after_x(f0, g_sq / (2.0 * e) - tol)
    tie_x = [(f0, fax, fax, g_sq, 0.0, e)]
    tie_y = [(f0, fax, fax + tol, g_sq, 0.0, e)]
    assert list(fold_history(History.from_rows(tie_x))[0]) == [True]
    assert list(fold_history(History.from_rows(tie_y))[0]) == [True]
    beyond_x = [(f0, math.nextafter(fax, math.inf), fax, g_sq, 0.0, e)]
    beyond_y = [(f0, fax, math.nextafter(fax + tol, math.inf), g_sq, 0.0, e)]
    assert list(fold_history(History.from_rows(beyond_x))[0]) == [False]
    assert list(fold_history(History.from_rows(beyond_y))[0]) == [False]
    for rows in (tie_x, tie_y, beyond_x, beyond_y):
        assert_fold_matches_reference(rows)


def certified_chain(n):
    """n certified steps of f -> f/2 with e = 1 and ||g||^2 = f / 2: each claims half its drop."""
    rows, f = [], 64.0
    for _ in range(n):
        rows.append((f, f / 2, f / 2, f / 2, 0.0, 1.0))
        f /= 2
    return rows


@pytest.mark.parametrize("k", [0, 1, 7, 18, 19])
@pytest.mark.parametrize("fault", ["decrease", "y_rise"])
def test_a_step_check_first_failing_at_row_k(k, fault):
    rows = certified_chain(20)
    f, fax, fay, g_sq, gy, e = rows[k]
    if fault == "decrease":
        rows[k] = (f, f - g_sq / (2.0 * e) * 0.5, fay, g_sq, gy, e)
    else:
        rows[k] = (f, fax, fax + 1.0, g_sq, gy, e)
    suff_ok, cert = assert_fold_matches_reference(rows)
    assert suff_ok.index(0) == k and sum(suff_ok) == 19
    assert not cert.all_steps_ok


@pytest.mark.parametrize("k", [0, 5, 19])
def test_a_telescope_bound_first_failing_at_prefix_k(k):
    # an inflated gradient at row k claims more decrease than f made by then
    rows = certified_chain(20)
    f, fax, fay, g_sq, gy, e = rows[k]
    rows[k] = (f, fax, fay, 4.0 * 64.0, gy, e)
    _, cum_sum, _, cert = fold_history(History.from_rows(rows))
    drop = 64.0 - np.array([r[2] for r in rows])
    assert int(np.argmax(np.asarray(cum_sum) > drop + check_tol_for(64.0))) == k
    _, ref_cert = assert_fold_matches_reference(rows)
    assert not cert.telescope_ok and ref_cert == cert


def test_a_zero_drop_bounds_the_rate_at_zero_when_two_e_max_overflows():
    # f never moves while the certified constant sits at 1e308: the bound is 0, not inf * 0
    rows = [(0.5, 0.5, 0.5, 4.0, 0.0, 1e308)] * 3
    _, _, rate_bound, cert = fold_history(History.from_rows(rows))
    assert bits(rate_bound.tolist()) == bits([0.0, 0.0, 0.0])
    assert cert.all_steps_ok and cert.telescope_ok and not cert.rate_bound_ok
    assert_fold_matches_reference(rows)


@pytest.mark.parametrize("family,strategy", ALL_COMBOS)
def test_a_runs_own_columns_are_the_reference_fold(family, strategy):
    obj = zoo_problem(family, seed=2)
    res = solve(obj, zoo_start(obj, 2), SolverConfig(x_strategy=strategy, max_iters=60))
    history = res.history
    rows = [tuple(getattr(rec, name) for name in RAW_FIELDS) for rec in history]
    assert rows and res.stop_reason is not StopReason.ERROR
    run = (history.suff_ok, history.cum_sum, history.rate_bound_prefix, res.certificate)
    assert_matches_reference(run, rows)
    # the in-memory History passes the checker a trace file of it passes
    assert verify_trace(history) == res.certificate and res.certificate.passed()


def test_a_run_that_errors_before_its_first_step_has_empty_columns():
    obj = BreaksAtCall(zoo_problem("coupled_quadratic"), "grad_x", 1, wrong_size=False)
    res = solve(obj, zoo_start(obj), SolverConfig())
    assert res.stop_reason is StopReason.ERROR and res.certificate.invalidated
    assert len(res.history) == res.certificate.num_steps == 0
    for name in History.__slots__:
        assert len(getattr(res.history, name)) == 0, name
