"""Runtime convergence certificate.

Turns the convergence analysis into machine checks along an actual run:

- per step: the x-update decreased f by at least ||grad_x||^2 / (2 e_t), and
  the y-update did not increase f (``check_step``);
- at every prefix (``accumulate``, which ``solve()`` and the trace audit
  both fold through): the telescoping sum of certified decreases is bounded
  by the f drop so far, and min_t ||grad||^2 <= 2 e_max (f_0 - f_t) / t,
  the O(1/sqrt(T)) guarantee.

The gradient norm recorded per step is the x-block one; it stands in for the
full gradient because the y block is stationary (to within the recorded
``gy_residual``) at the measurement point. Certificates are pure folds over
the record sequence, so a trace can be refolded later and compared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateFit,
    EmptyHistory,
    InsufficientHistory,
    OutOfOrderRecord,
)


@dataclass
class IterationRecord:
    """Audit trail of one BCD step.

    ``gx_norm_sq`` is ||grad_x f(x_t, y_t)||^2 measured before the x-update;
    ``gy_residual`` is ||grad_y f|| after this step's y-update; ``e_t`` is the
    constant the x-strategy certified.
    """

    t: int
    f_before: float
    f_after_x: float
    f_after_y: float
    gx_norm_sq: float
    gy_residual: float
    e_t: float
    suff_ok: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.f_before) and math.isfinite(self.f_after_x)
                and math.isfinite(self.f_after_y) and math.isfinite(self.gx_norm_sq)
                and math.isfinite(self.gy_residual) and math.isfinite(self.e_t)):
            raise ValueError(f"record {self.t} has non-finite fields")
        if self.gx_norm_sq < 0 or self.gy_residual < 0:
            raise ValueError(f"record {self.t} has negative norms")
        if not self.e_t > 0:
            raise ValueError(f"record {self.t} has e_t = {self.e_t!r}, must be > 0")


@dataclass
class Certificate:
    """Running aggregate of a record sequence.

    Fold identities: ``e_min``/``min_grad_sq`` start at +inf, ``e_max`` at 0.
    ``telescope_ok``/``rate_bound_ok`` say the bound held at every prefix.
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
    invalidated: bool = False

    @classmethod
    def fresh(cls, f0: float) -> "Certificate":
        return cls(f0=float(f0), f_final=float(f0))

    @property
    def rate_bound(self) -> float:
        """2 e_max (f0 - f_final) / T; NaN until a step has been recorded."""
        if self.num_steps == 0:
            return math.nan
        return 2.0 * self.e_max * (self.f0 - self.f_final) / self.num_steps

    def passed(self) -> bool:
        return (self.all_steps_ok and self.telescope_ok and self.rate_bound_ok
                and not self.invalidated)


def check_tol_for(f0: float) -> float:
    """The run's one tolerance, 1e-10 * max(1, |f0|), from its first value.

    Strategies accept steps, and the certificate and trace audit check them,
    against this number; a trace carries f0 in its first row, so the audit
    recovers it from the file alone.
    """
    return 1e-10 * max(1.0, abs(f0))


def sufficient_decrease(f: float, f_next: float, g_sq: float, e: float, tol: float) -> bool:
    """f - f_next >= g_sq / (2 e) - tol: the per-step inequality, within tol.

    The one decrease test: strategies accept a step with it and
    ``check_step`` certifies the step with it, so both decide alike.
    """
    return f - f_next >= g_sq / (2.0 * e) - tol


def check_step(rec: IterationRecord, tol: float) -> bool:
    """Verify one step: certified x-decrease and monotone y-step, within tol.

    Sets ``rec.suff_ok`` and returns it. A failed check is a False, never a
    crash; the caller decides what a broken step means.
    """
    decrease_ok = sufficient_decrease(rec.f_before, rec.f_after_x, rec.gx_norm_sq, rec.e_t, tol)
    monotone_ok = rec.f_after_y <= rec.f_after_x + tol
    rec.suff_ok = bool(decrease_ok and monotone_ok)
    return rec.suff_ok


def accumulate(cert: Certificate, rec: IterationRecord) -> Certificate:
    """Fold one record into the certificate; returns a new Certificate.

    Records must arrive in order: rec.t equal to the number already folded.
    At the new prefix it checks the telescoped bound running_sum <= f0 - f_t
    and the rate bound min_grad_sq <= rate_bound, within ``check_tol_for(f0)``.
    """
    if rec.t != cert.num_steps:
        raise OutOfOrderRecord(
            f"record t={rec.t} after {cert.num_steps} accumulated steps"
        )
    tol = check_tol_for(cert.f0)
    num_steps = cert.num_steps + 1
    running_sum = cert.running_sum + rec.gx_norm_sq / (2.0 * rec.e_t)
    e_max = max(cert.e_max, rec.e_t)
    min_grad_sq = min(cert.min_grad_sq, rec.gx_norm_sq)
    drop = cert.f0 - rec.f_after_y
    rate_bound = 2.0 * e_max * drop / num_steps  # Certificate.rate_bound's arithmetic
    return Certificate(
        f0=cert.f0,
        f_final=rec.f_after_y,
        num_steps=num_steps,
        running_sum=running_sum,
        e_max=e_max,
        e_min=min(cert.e_min, rec.e_t),
        min_grad_sq=min_grad_sq,
        max_gy_residual=max(cert.max_gy_residual, rec.gy_residual),
        telescope_ok=cert.telescope_ok and running_sum <= drop + tol,
        rate_bound_ok=cert.rate_bound_ok and min_grad_sq <= rate_bound + tol,
        all_steps_ok=cert.all_steps_ok and rec.suff_ok,
        invalidated=cert.invalidated,
    )


def min_grad_bound(cert: Certificate):
    """Return (min_t ||grad||^2, 2 e_max (f0 - f_final) / T).

    With every step certified, the first is bounded by the second (up to the
    check tolerance), which is the O(1/sqrt(T)) min-gradient rate.
    """
    if cert.num_steps == 0:
        raise EmptyHistory("no iterations recorded")
    return cert.min_grad_sq, cert.rate_bound


def fit_rate(history) -> float:
    """Least-squares slope of log(min-so-far gradient norm) vs log(t + 1).

    A certified run's bound curve has slope exactly -1/2; an actual trace may
    fall faster. Needs at least 10 records, all with positive min-so-far
    norms (a norm of exactly zero means convergence, not a power law).
    """
    records = list(history)
    if len(records) < 10:
        raise InsufficientHistory(f"{len(records)} records; need at least 10")
    norms = np.minimum.accumulate(np.sqrt([r.gx_norm_sq for r in records]))
    if np.any(norms == 0.0):
        raise DegenerateFit("gradient norm hit exactly zero; run converged")
    ts = np.log(np.arange(1, len(records) + 1, dtype=float))
    slope, _ = np.polyfit(ts, np.log(norms), 1)
    return float(slope)
