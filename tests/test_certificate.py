import dataclasses
import math

import numpy as np
import pytest

from bcdcert.audit import Certificate, check_tol_for, rate_bound, sufficient_decrease
from bcdcert.certificate import History, IterationRecord, fit_rate
from bcdcert.errors import DegenerateFit, InsufficientHistory
from bcdcert.traceio import read_trace, verify_trace, write_trace

from test_fold import fold_history


def rec(t, f_before, f_after_x, f_after_y, gx_sq, e_t, gy_res=0.0):
    return IterationRecord(
        t=t,
        f_before=f_before,
        f_after_x=f_after_x,
        f_after_y=f_after_y,
        gx_norm_sq=gx_sq,
        gy_residual=gy_res,
        e_t=e_t,
    )


def folded(records):
    """The fold of the records in order: (suff_ok, cum_sum, rate_bound_prefix, certificate)."""
    return fold_history(History.from_records(records))


def step_ok(r):
    """The fold's step check on one record, at the tolerance of its own f_before."""
    return bool(folded([dataclasses.replace(r, t=0)])[0][0])


# The worked two-step chain: f 0.25 -> 0.0625 -> 0.015625 with e_t = 1.
CHAIN = [
    rec(0, 0.25, 0.125, 0.0625, 0.25, 1.0),
    rec(1, 0.0625, 0.03125, 0.015625, 0.0625, 1.0),
]


def test_record_validation():
    with pytest.raises(ValueError):
        rec(0, math.nan, 0.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        rec(0, 1.0, 0.0, 0.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        rec(0, 1.0, 0.0, 0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        rec(0, 1.0, 0.0, 0.0, 1.0, 1.0, gy_res=-0.5)


def test_step_check_equality_is_a_pass():
    # decrease exactly ||g||^2/(2e): the tightness case must not be rejected
    r = rec(0, 2.0, 0.0, 0.0, 8.0, 2.0)  # need = 8/(2*2) = 2 = decrease
    assert sufficient_decrease(r.f_before, r.f_after_x, r.gx_norm_sq, r.e_t, 0.0) is True
    assert step_ok(r)


def test_step_check_fails_just_below_equality():
    # short by 1e-9, more than the tolerance 2e-10 of f0 = 2
    r = rec(0, 2.0, 1e-9, 0.0, 8.0, 2.0)
    assert sufficient_decrease(r.f_before, r.f_after_x, r.gx_norm_sq, r.e_t, 1e-12) is False
    assert step_ok(r) is False


def test_step_check_tolerance_absorbs_roundoff():
    r = rec(0, 2.0, 1e-13, 0.0, 8.0, 2.0)
    assert sufficient_decrease(r.f_before, r.f_after_x, r.gx_norm_sq, r.e_t, 1e-10) is True
    assert step_ok(r) is True


def test_step_check_rejects_y_increase():
    r = rec(0, 2.0, 0.0, 1.0, 1.0, 2.0)  # y step went up by 1
    assert step_ok(r) is False


def test_fold_folds_the_worked_chain():
    suff_ok, cum_sum, rate_bound, cert = folded(CHAIN)
    assert list(suff_ok) == [True, True]
    assert cum_sum.tolist() == [0.125, 0.15625]
    assert rate_bound.tolist() == [0.375, 0.234375]
    assert cert.num_steps == 2
    assert cert.running_sum == 0.15625
    assert cert.f_final == 0.015625
    assert cert.e_max == cert.e_min == 1.0
    assert cert.min_grad_sq == 0.0625
    assert cert.rate_bound == 0.234375  # 2*1*(0.25-0.015625)/2
    assert cert.running_sum <= cert.f0 - cert.f_final  # exact, no tolerance
    assert cert.telescope_ok and cert.rate_bound_ok
    assert cert.passed()


def test_fold_is_pure():
    history = History.from_records(CHAIN)
    columns = [getattr(history, name).copy() for name in History.__slots__]
    first = fold_history(history)
    assert all(np.array_equal(getattr(history, name), col)
               for name, col in zip(History.__slots__, columns))
    assert history.suff_ok.tolist() == [False, False]  # the records' own flags, untouched
    assert fold_history(history)[3] == first[3]
    assert folded(CHAIN[:1])[3].num_steps == 1


def test_history_rejects_out_of_order_records():
    with pytest.raises(ValueError, match="record t=1 at index 0"):
        History.from_records([CHAIN[1]])


def test_failed_step_poisons_all_steps_ok():
    r = rec(0, 2.0, 1.9, 1.9, 8.0, 2.0)  # decrease 0.1 < need 2
    cert = folded([r])[3]
    assert not cert.all_steps_ok
    assert not cert.passed()


def test_fold_detects_an_inflated_sum():
    # claims a decrease of 10 against an actual f drop of 0.5
    r = rec(0, 1.0, 0.5, 0.5, 20.0, 1.0)
    cert = folded([r])[3]
    assert cert.telescope_ok is False
    assert not cert.passed()


def telescope_fails_only_at_prefix_0():
    """f0 = 1: record 0 meets both step checks exactly at tol, record 1 has slack.

    Record 0's certified decrease is 0.5 + tol while f drops by 0.5 - tol, so
    prefix 0 breaks the telescoped bound by tol; record 1 claims 0.25 of a
    0.5 + tol drop, so the whole run satisfies it.
    """
    tol = check_tol_for(1.0)
    return [
        rec(0, 1.0, 0.5, 0.5 + tol, 0.25 * (0.5 + tol), 0.125),
        rec(1, 0.5 + tol, 0.0, 0.0, 0.0625, 0.125),
    ]


def test_telescope_is_checked_at_every_prefix():
    tol = check_tol_for(1.0)
    records = telescope_fails_only_at_prefix_0()
    suff_ok, _, _, cert = folded(records)
    assert all(suff_ok)
    prefix = folded(records[:1])[3]
    assert not prefix.telescope_ok and prefix.rate_bound_ok
    # the final prefix alone would pass
    assert cert.running_sum <= (cert.f0 - cert.f_final) + tol
    assert cert.all_steps_ok and cert.rate_bound_ok
    assert not cert.telescope_ok and not cert.passed()


def test_trace_audit_agrees_with_the_fold(tmp_path):
    path = str(tmp_path / "prefix.trace.csv")
    records = telescope_fails_only_at_prefix_0()
    write_trace(path, History.from_records(records))
    cert = verify_trace(read_trace(path))
    assert cert == folded(records)[3]
    assert cert.all_steps_ok and cert.rate_bound_ok
    assert cert.telescope_ok is False and not cert.passed()


def test_fold_checks_the_rate_bound():
    # one certified step meeting the telescoped bound exactly: g^2 = 8 (0.5 + tol)
    # exceeds 2 e_max (f0 - f_1) / 1 + tol = 4 + tol
    tol = check_tol_for(1.0)
    r = rec(0, 1.0, 0.5, 0.5, 8.0 * (0.5 + tol), 4.0)
    suff_ok, _, _, cert = folded([r])
    assert suff_ok[0]
    assert cert.all_steps_ok and cert.telescope_ok
    assert cert.rate_bound_ok is False
    assert not cert.passed()


def test_rate_bound_is_nan_before_any_step():
    assert math.isnan(Certificate.fresh(1.0).rate_bound)


def test_min_grad_sq_and_rate_bound_on_the_chain():
    cert = folded(CHAIN)[3]
    assert (cert.min_grad_sq, cert.rate_bound) == (0.0625, 0.234375)
    assert type(cert.rate_bound) is float


@pytest.mark.parametrize("drop", [0.0, -0.0])
def test_a_zero_drop_bounds_at_zero_when_two_e_max_overflows(drop):
    # 2 * 1e308 is inf, and inf * 0 would be NaN: the bound is the drop itself
    cert = Certificate(f0=drop, f_final=0.0, num_steps=3, e_max=1e308)
    assert cert.rate_bound == 0.0 and math.copysign(1.0, cert.rate_bound) == math.copysign(1.0, drop)


def test_rate_bound_keeps_the_plain_product_elsewhere():
    e_max, drop = np.array([1e308, 1.5, 5e-324, 3.0]), np.array([-2.0, 0.1, 0.7, 1e308])
    with np.errstate(over="ignore"):
        plain = 2.0 * e_max * drop / 3.0
    assert [rate_bound(e, d, 3) for e, d in zip(e_max.tolist(), drop.tolist())] == plain.tolist()


def test_vacuous_steps_are_those_whose_required_decrease_is_within_the_tolerance():
    # f0 = 1: tol = 1e-10. Required decreases 2e-10, 1e-10 (a tie counts), 0
    # and 5e-11; e_max = 4, so the floor is sqrt(2 * 4 * 1e-10).
    tol = check_tol_for(1.0)
    chain = [
        rec(0, 1.0, 0.5, 0.5, 4e-10, 1.0),
        rec(1, 0.5, 0.5, 0.5, 8e-10, 4.0),
        rec(2, 0.5, 0.5, 0.5, 0.0, 1.0),
        rec(3, 0.5, 0.5, 0.5, 1e-10, 1.0),
    ]
    assert [r.gx_norm_sq / (2.0 * r.e_t) <= tol for r in chain] == [False, True, True, True]
    cert = folded(chain)[3]
    assert cert.vacuous_steps == 3 and cert.passed()
    assert cert.grad_floor == math.sqrt(2.0 * 4.0 * tol)
    assert (Certificate.fresh(1.0).vacuous_steps, Certificate.fresh(1.0).grad_floor) == (0, 0.0)


def test_invalidated_certificate_never_passes():
    cert = folded(CHAIN[:1])[3]
    assert cert.passed()
    cert.invalidated = True
    assert not cert.passed()


# --- rate fitting -----------------------------------------------------------


def power_law_history(n, exponent=-0.5):
    # gx_norm_sq = (t+1)^(2*exponent) so the norm decays like (t+1)^exponent
    records = []
    f = 100.0
    for t in range(n):
        g_sq = float((t + 1) ** (2 * exponent))
        records.append(rec(t, f, f - 1.0, f - 1.0, g_sq, 1.0))
        f -= 1.0
    return records


def test_fit_rate_recovers_the_half_power_law():
    slope = fit_rate(History.from_records(power_law_history(200)))
    assert slope == pytest.approx(-0.5, abs=1e-6)


def test_fit_rate_recovers_other_exponents():
    slope = fit_rate(History.from_records(power_law_history(100, exponent=-1.0)))
    assert slope == pytest.approx(-1.0, abs=1e-6)


def test_fit_rate_uses_the_running_minimum():
    # an up-spike in the gradient must not affect the fitted envelope
    records = power_law_history(50)
    records[30] = dataclasses.replace(records[30], gx_norm_sq=100.0)
    slope = fit_rate(History.from_records(records))
    assert slope == pytest.approx(-0.5, abs=0.02)


def test_fit_rate_of_a_flat_running_minimum_is_exactly_zero():
    # np.polyfit gave -1.8e-17 here, which report printed as "-0.0000"
    records = [dataclasses.replace(r, gx_norm_sq=4.0) for r in power_law_history(50)]
    slope = fit_rate(History.from_records(records))
    assert slope == 0.0 and math.copysign(1.0, slope) == 1.0


def test_fit_rate_needs_ten_records():
    with pytest.raises(InsufficientHistory):
        fit_rate(History.from_records(power_law_history(9)))


def test_fit_rate_rejects_exact_zero_norms():
    records = power_law_history(12)
    records[5] = dataclasses.replace(records[5], gx_norm_sq=0.0)
    with pytest.raises(DegenerateFit):
        fit_rate(History.from_records(records))


def test_records_are_immutable():
    with pytest.raises(dataclasses.FrozenInstanceError):
        CHAIN[0].suff_ok = True
