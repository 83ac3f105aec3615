import math

import numpy as np
import pytest

from bcdcert.certificate import (
    Certificate,
    IterationRecord,
    accumulate,
    check_step,
    check_tol_for,
    fit_rate,
    min_grad_bound,
)
from bcdcert.errors import (
    DegenerateFit,
    EmptyHistory,
    InsufficientHistory,
    OutOfOrderRecord,
)
from bcdcert.traceio import read_trace, verify_trace, write_trace


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


def test_check_step_equality_is_a_pass():
    # decrease exactly ||g||^2/(2e): the tightness case must not be rejected
    r = rec(0, 2.0, 0.0, 0.0, 8.0, 2.0)  # need = 8/(2*2) = 2 = decrease
    assert check_step(r, tol=0.0) is True
    assert r.suff_ok


def test_check_step_fails_just_below_equality():
    r = rec(0, 2.0, 1e-9, 0.0, 8.0, 2.0)
    assert check_step(r, tol=1e-12) is False


def test_check_step_tolerance_absorbs_roundoff():
    r = rec(0, 2.0, 1e-13, 0.0, 8.0, 2.0)
    assert check_step(r, tol=1e-10) is True


def test_check_step_rejects_y_increase():
    r = rec(0, 2.0, 0.0, 1.0, 1.0, 2.0)  # y step went up by 1
    assert check_step(r, tol=1e-10) is False


def test_accumulate_folds_the_worked_chain():
    cert = Certificate.fresh(0.25)
    for r in CHAIN:
        check_step(r, tol=1e-10)
        cert = accumulate(cert, r)
    assert cert.num_steps == 2
    assert cert.running_sum == 0.15625
    assert cert.f_final == 0.015625
    assert cert.e_max == cert.e_min == 1.0
    assert cert.min_grad_sq == 0.0625
    assert cert.rate_bound == 0.234375  # 2*1*(0.25-0.015625)/2
    assert cert.running_sum <= cert.f0 - cert.f_final  # exact, no tolerance
    assert cert.telescope_ok and cert.rate_bound_ok
    assert cert.passed()


def test_accumulate_is_pure():
    cert = Certificate.fresh(0.25)
    r = CHAIN[0]
    check_step(r, tol=1e-10)
    cert2 = accumulate(cert, r)
    assert cert.num_steps == 0 and cert2.num_steps == 1


def test_accumulate_rejects_out_of_order_records():
    cert = Certificate.fresh(0.25)
    with pytest.raises(OutOfOrderRecord):
        accumulate(cert, CHAIN[1])


def test_failed_step_poisons_all_steps_ok():
    cert = Certificate.fresh(2.0)
    r = rec(0, 2.0, 1.9, 1.9, 8.0, 2.0)  # decrease 0.1 < need 2
    check_step(r, tol=1e-10)
    cert = accumulate(cert, r)
    assert not cert.all_steps_ok
    assert not cert.passed()


def test_fold_detects_an_inflated_sum():
    cert = Certificate.fresh(1.0)
    # claims a decrease of 10 against an actual f drop of 0.5
    r = rec(0, 1.0, 0.5, 0.5, 20.0, 1.0)
    check_step(r, tol=1e-10)
    cert = accumulate(cert, r)
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
    assert all(check_step(r, tol) for r in records)
    cert = Certificate.fresh(1.0)
    cert = accumulate(cert, records[0])
    assert not cert.telescope_ok and cert.rate_bound_ok
    cert = accumulate(cert, records[1])
    # the final prefix alone would pass
    assert cert.running_sum <= (cert.f0 - cert.f_final) + tol
    assert cert.all_steps_ok and cert.rate_bound_ok
    assert not cert.telescope_ok and not cert.passed()


def test_trace_audit_agrees_with_the_fold(tmp_path):
    path = str(tmp_path / "prefix.trace.csv")
    write_trace(path, telescope_fails_only_at_prefix_0())
    verdict = verify_trace(read_trace(path))
    assert verdict.all_steps_ok and verdict.rate_bound_ok
    assert not verdict.telescope_ok and not verdict.passed()
    assert verdict.certificate.telescope_ok is False


def test_fold_checks_the_rate_bound():
    # one certified step meeting the telescoped bound exactly: g^2 = 8 (0.5 + tol)
    # exceeds 2 e_max (f0 - f_1) / 1 + tol = 4 + tol
    tol = check_tol_for(1.0)
    r = rec(0, 1.0, 0.5, 0.5, 8.0 * (0.5 + tol), 4.0)
    assert check_step(r, tol)
    cert = accumulate(Certificate.fresh(1.0), r)
    assert cert.all_steps_ok and cert.telescope_ok
    assert cert.rate_bound_ok is False
    assert not cert.passed()


def test_min_grad_bound_needs_history():
    with pytest.raises(EmptyHistory):
        min_grad_bound(Certificate.fresh(1.0))


def test_rate_bound_is_nan_before_any_step():
    assert math.isnan(Certificate.fresh(1.0).rate_bound)


def test_min_grad_bound_on_the_chain():
    cert = Certificate.fresh(0.25)
    for r in CHAIN:
        check_step(r, tol=1e-10)
        cert = accumulate(cert, r)
    mg, bound = min_grad_bound(cert)
    assert (mg, bound) == (0.0625, 0.234375)
    assert mg <= bound


def test_invalidated_certificate_never_passes():
    cert = Certificate.fresh(0.25)
    r = CHAIN[0]
    check_step(r, tol=1e-10)
    cert = accumulate(cert, r)
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
    slope = fit_rate(power_law_history(200))
    assert slope == pytest.approx(-0.5, abs=1e-6)


def test_fit_rate_recovers_other_exponents():
    slope = fit_rate(power_law_history(100, exponent=-1.0))
    assert slope == pytest.approx(-1.0, abs=1e-6)


def test_fit_rate_uses_the_running_minimum():
    # an up-spike in the gradient must not affect the fitted envelope
    records = power_law_history(50)
    records[30].gx_norm_sq = 100.0
    slope = fit_rate(records)
    assert slope == pytest.approx(-0.5, abs=0.02)


def test_fit_rate_needs_ten_records():
    with pytest.raises(InsufficientHistory):
        fit_rate(power_law_history(9))


def test_fit_rate_rejects_exact_zero_norms():
    records = power_law_history(12)
    records[5].gx_norm_sq = 0.0
    with pytest.raises(DegenerateFit):
        fit_rate(records)
