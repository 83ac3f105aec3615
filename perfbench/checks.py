"""Independent correctness checks.

Every check recomputes what it needs with the benchmark's own numpy code, or
tests a property the method must have; none compares against stored output
and none goes through the program's own fold or ground-truth helpers.
"""

from __future__ import annotations

import math

import numpy as np


def certificate_error(history, check_tol: float):
    """Re-derive certificate assertions 1-3 at every prefix; None when all hold.

    1. each step decreased f by ||gx||^2 / (2 e_t) and the y-step did not raise it,
    2. the accumulated sum of those bounds never exceeds f_0 - f_t,
    3. min_s ||gx_s||^2 <= 2 e_max (f_0 - f_t) / (t + 1), the slack being the
       tolerance of 2 carried through the same algebra.
    All within the run's check_tol, as the certificate states them.
    """
    if not history:
        return "empty history"
    f0 = history[0].f_before
    prev = f0
    total = 0.0
    e_max = 0.0
    min_sq = math.inf
    for t, rec in enumerate(history):
        if rec.t != t:
            return f"record {t} is numbered {rec.t}"
        if rec.f_before != prev:
            return f"step {t}: f_before does not continue from the previous step"
        bound = rec.gx_norm_sq / (2.0 * rec.e_t)
        if not rec.f_before - rec.f_after_x >= bound - check_tol:
            return f"step {t}: x-decrease {rec.f_before - rec.f_after_x!r} below {bound!r}"
        if not rec.f_after_y <= rec.f_after_x + check_tol:
            return f"step {t}: y-step raised f"
        if not rec.suff_ok:
            return f"step {t}: recorded as not certified"
        total += bound
        if not total <= (f0 - rec.f_after_y) + check_tol:
            return f"prefix {t}: sum of bounds {total!r} exceeds decrease {f0 - rec.f_after_y!r}"
        e_max = max(e_max, rec.e_t)
        min_sq = min(min_sq, rec.gx_norm_sq)
        rate = 2.0 * e_max * (f0 - rec.f_after_y) / (t + 1)
        if not min_sq <= rate + 2.0 * e_max * check_tol / (t + 1) + 1e-12 * abs(rate):
            return f"prefix {t}: min ||gx||^2 {min_sq!r} above rate bound {rate!r}"
        prev = rec.f_after_y
    return None


def _coupled_error(obj, final, grad_tol):
    H = np.block([[obj.A, obj.B], [obj.B.T, obj.C]])
    z_star = np.linalg.solve(H, -np.concatenate([obj.a, obj.c]))
    eig = np.linalg.eigvalsh(H)
    dist = float(np.linalg.norm(np.concatenate([final.x, final.y]) - z_star))
    # ||z - z*|| <= ||grad f(z)|| / lambda_min(H), plus the roundoff of the reference solve.
    limit = 1.01 * grad_tol / eig[0] + 1e-12 * (eig[-1] / eig[0]) * max(1.0, float(np.linalg.norm(z_star)))
    if not dist <= limit:
        return f"final point {dist:.3g} from the joint solution (limit {limit:.3g})"
    return None


def _tight_error(obj, final, grad_tol):
    x_star = obj.anchor - obj.g_anchor / obj.l_const
    dist = float(np.linalg.norm(final.x - x_star))
    limit = 1.01 * grad_tol / obj.l_const + 1e-12 * max(1.0, float(np.linalg.norm(x_star)))
    if not dist <= limit:
        return f"final point {dist:.3g} from the minimizer (limit {limit:.3g})"
    return None


def _mf_error(obj, final, grad_tol, floor):
    m, r, n = obj.m, obj.rank, obj.n
    X, Y = final.x.reshape(m, r), final.y.reshape(r, n)
    R = X @ Y - obj.target
    g = math.sqrt(float(np.sum((R @ Y.T) ** 2)) + float(np.sum((X.T @ R) ** 2)))
    if not g <= grad_tol + 1e-12:
        return f"recomputed gradient norm {g:.3g} above grad_tol {grad_tol:.3g}"
    f = 0.5 * float(np.sum(R * R))
    if not f >= floor - 1e-12 * max(1.0, floor):
        return f"f_final {f!r} below the Eckart-Young floor {floor!r}"
    return None


def _rosenbrock_error(obj, final, grad_tol):
    x, y, s = float(final.x[0]), float(final.y[0]), obj.scale
    g = math.hypot(-2.0 * (1.0 - x) - 4.0 * s * x * (y - x * x), 2.0 * s * (y - x * x))
    if not g <= grad_tol + 1e-12:
        return f"recomputed gradient norm {g:.3g} above grad_tol {grad_tol:.3g}"
    return None


def refusal(case, result):
    """None if solve() reports a certified run that stopped as expected, else why not."""
    if result.error is not None:
        return f"raised {type(result.error).__name__}: {result.error}"
    if result.stop_reason.value not in case.expect_stop:
        return f"stopped with {result.stop_reason.value}, expected {'/'.join(case.expect_stop)}"
    if not result.certificate.passed():
        return "certificate did not pass"
    return None


def solve_error(case, result):
    """None if a run that reports a certificate bears it out, else what is wrong."""
    err = certificate_error(result.history, result.check_tol)
    if err:
        return err
    if result.stop_reason.value != "grad_tol_met":
        return None
    tol = case.cfg.grad_tol
    if case.family == "coupled_quadratic":
        return _coupled_error(case.obj, result.final, tol)
    if case.family == "tight_quadratic":
        return _tight_error(case.obj, result.final, tol)
    if case.family == "matrix_factorization":
        return _mf_error(case.obj, result.final, tol, case.truth["floor"])
    return _rosenbrock_error(case.obj, result.final, tol)


def history_key(result):
    """Bitwise identity of a run: every recorded field, every final coordinate."""
    rows = tuple(
        (r.t, r.f_before.hex(), r.f_after_x.hex(), r.f_after_y.hex(), r.gx_norm_sq.hex(),
         r.gy_residual.hex(), r.e_t.hex(), r.suff_ok)
        for r in result.history
    )
    return rows, result.final.x.tobytes(), result.final.y.tobytes(), result.stop_reason.value


def trace_matches(rows, history):
    """read_trace rows equal the in-process history, field by field, bit for bit."""
    if len(rows) != len(history):
        return f"trace has {len(rows)} rows, the replayed run {len(history)}"
    for row, rec in zip(rows, history):
        a, b = row.record, rec
        for name in ("f_before", "f_after_x", "f_after_y", "gx_norm_sq", "gy_residual", "e_t"):
            if getattr(a, name).hex() != getattr(b, name).hex():
                return f"row {b.t}: {name} differs from the replayed run"
        if a.t != b.t or a.suff_ok != b.suff_ok:
            return f"row {b.t}: t or suff_ok differs from the replayed run"
    return None
