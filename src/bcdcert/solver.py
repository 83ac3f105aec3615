"""Outer BCD loop: exact y-stationarity, certified x-step, repeat.

One initial ``stationary_y`` call makes the certificate's standing hypothesis
(grad_y = 0 at every measured iterate) true by construction; after that each
iteration measures grad_x at (x_t, y_t), applies the configured x-strategy,
re-solves the y block and records the step. The recorded columns are folded
into the certificate once, when the loop ends (``certificate.fold``).

Each iterate is evaluated once: the x-strategy hands back the value of the
point it moved to, and ``stationary_y`` the value and ||grad_y||^2 of the next
iterate, so per iteration the solver itself only calls grad_x. Each number is
computed once too: ``checked_grad`` hands back ||grad_x||^2 with the gradient,
and the solver tests ``grad_tol`` with it, records it and passes it to the
x-strategy. Both blocks' line searches run on ``cfg.backtrack``, which the
run never rebuilds: each block carries its estimate in a local of the loop,
from one search into the next (see ``strategies._line_search``).

An error from any oracle or strategy mid-run does not discard the work: the
partial history and an invalidated certificate come back on the RunResult
with ``stop_reason = ERROR`` and the exception attached.
"""

from __future__ import annotations

import enum
import math
import time
from array import array
from dataclasses import dataclass, field

import numpy as np

from .certificate import RAW_FIELDS, Certificate, History, check_record, check_tol_for, fold
from .errors import BcdcertError, NonFiniteValue
from .problem import BlockPoint, Objective, checked_grad, checked_value, evaluate
from .strategies import (
    BacktrackParams,
    backtracking_gradient_x,
    exact_min_x,
    fixed_step_gradient_x,
    full_gradient_step,
    stationary_y,
)

X_STRATEGIES = ("fixed_step", "exact_min", "backtracking")


class StopReason(str, enum.Enum):
    GRAD_TOL = "grad_tol_met"
    MAX_ITERS = "max_iters"
    ERROR = "error"


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for one run.

    ``y_tol=None`` resolves to 1e-10 * max(1, ||grad_y|| at the start) and
    is recorded on the result, as is the run's decrease tolerance, which is
    not a knob: it is ``check_tol_for(f0)``. ``seed`` only labels the run
    (the loop itself is deterministic).
    """

    x_strategy: str = "fixed_step"
    y_tol: float | None = None
    grad_tol: float = 1e-9
    max_iters: int = 1000
    backtrack: BacktrackParams = field(default_factory=BacktrackParams)
    seed: int = 0

    def __post_init__(self):
        if self.x_strategy not in X_STRATEGIES:
            raise ValueError(
                f"x_strategy {self.x_strategy!r} not one of {X_STRATEGIES}"
            )
        if self.y_tol is not None and not self.y_tol > 0:
            raise ValueError("y_tol must be positive")
        if not self.grad_tol > 0:
            raise ValueError("grad_tol must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass
class RunResult:
    """Everything one run produced; immutable by convention once returned."""

    final: BlockPoint
    certificate: Certificate
    history: History
    stop_reason: StopReason
    wall_time: float
    y_tol: float
    check_tol: float
    init_y_residual: float = 0.0
    error: BcdcertError | None = None

    @property
    def iterations(self) -> int:
        return len(self.history)


def _resolve_y_tol(obj, start, cfg):
    if cfg.y_tol is not None:
        return cfg.y_tol
    gy0 = math.sqrt(checked_grad(obj, start, "y")[1])
    if not math.isfinite(gy0):  # finite entries whose norm overflows
        gy0 = 1.0
    return 1e-10 * max(1.0, gy0)


def _append_row(rows: array, t: int, row: tuple) -> None:
    """Append a record's raw fields to the flat ``rows``, after checking them.

    A number that overflowed ends the run, with ``check_record``'s message.
    The three f values come from ``checked_value``, the norms are >= 0 and
    e_t > 0 by construction, so only the finiteness of the last three
    fields can fail (a gradient norm whose square overflows, an estimate
    grown past the float range). ``check_record`` runs only when their sum
    is not finite: when one of them is not, or when three finite ones
    overflow the sum, a row it then passes.
    """
    if not math.isfinite(row[3] + row[4] + row[5]):
        try:
            check_record(t, *row)
        except ValueError as exc:
            raise NonFiniteValue(str(exc)) from None
    rows.extend(row)


def _result(rows, f0, point, stop, error, t_start, y_tol, init_residual=0.0) -> RunResult:
    """Fold the recorded rows once and package the run; an error invalidates the certificate."""
    history = History.from_rows(np.reshape(rows, (-1, len(RAW_FIELDS))))
    history.suff_ok, _, _, cert = fold(history, f0)
    cert.invalidated = error is not None
    return RunResult(
        final=point,
        certificate=cert,
        history=history,
        stop_reason=stop,
        wall_time=time.perf_counter() - t_start,
        y_tol=y_tol,
        check_tol=check_tol_for(cert.f0),
        init_y_residual=init_residual,
        error=error,
    )


def solve(obj: Objective, start: BlockPoint, cfg: SolverConfig) -> RunResult:
    """Run certified BCD from ``start`` until grad_tol, max_iters, or error."""
    t_start = time.perf_counter()
    obj.check_point(start)

    y_tol = math.nan
    init_residual = 0.0
    point = start
    f0 = math.nan
    rows = array("d")
    stop = StopReason.MAX_ITERS
    error: BcdcertError | None = None
    # An oracle's numpy overflow is caught where its number enters (a
    # non-finite answer raises), so numpy's RuntimeWarning would only be noise.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        try:
            y_tol = _resolve_y_tol(obj, start, cfg)
            # Until the y block is solved, f at the start stands in for f0: it
            # is what an error result reports, and this one solve's tolerance.
            f0 = checked_value(obj, start)
            # None until the block's first search, which starts at l_init and
            # may calibrate below it, wherever in the run it falls.
            l_x = None
            point, init_residual, f_cur, gy_sq, l_y = stationary_y(
                obj, start, f0, y_tol, check_tol_for(f0), cfg.backtrack
            )
            f0 = f_cur
            check_tol = check_tol_for(f0)
            for t in range(cfg.max_iters):
                gx, gx_sq = checked_grad(obj, point, "x")
                if math.sqrt(gx_sq + gy_sq) <= cfg.grad_tol:
                    stop = StopReason.GRAD_TOL
                    break
                if cfg.x_strategy == "fixed_step":
                    upd = fixed_step_gradient_x(obj, point, f_cur, gx, gx_sq, check_tol)
                elif cfg.x_strategy == "exact_min":
                    upd = exact_min_x(obj, point, f_cur, gx, gx_sq, check_tol)
                else:
                    upd = backtracking_gradient_x(
                        obj, point, f_cur, gx, gx_sq, check_tol, cfg.backtrack, l_x
                    )
                    if upd.inner_evals:
                        l_x = upd.e_t
                point, residual, f_after_y, gy_sq, l_y = stationary_y(
                    obj, upd.point, upd.f_next, y_tol, check_tol, cfg.backtrack, l_y
                )
                _append_row(rows, t, (f_cur, upd.f_next, f_after_y, gx_sq, residual, upd.e_t))
                f_cur = f_after_y
        except BcdcertError as err:
            error = err
            stop = StopReason.ERROR
    return _result(rows, f0, point, stop, error, t_start, y_tol, init_residual)


def solve_gd_baseline(
    obj: Objective, start: BlockPoint, step: float, max_iters: int
) -> RunResult:
    """Plain joint gradient descent, recorded in the same trace schema.

    Baseline for side-by-side reporting only. Records use the full gradient
    norm and e_t = 1/step (the constant a 1/L-style step would certify);
    nothing here is asserted, and divergence with a too-large step is an
    expected outcome that comes back as stop_reason = ERROR.
    """
    if step < 0:
        raise ValueError("step must be nonnegative")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    t_start = time.perf_counter()
    obj.check_point(start)
    e_t = 1.0 / step if step > 0 else 1.0

    point = start
    f0 = math.nan
    rows = array("d")
    stop = StopReason.MAX_ITERS
    error: BcdcertError | None = None
    # as in solve: one guard per call, not per oracle call
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        try:
            f_cur, gx, gy = evaluate(obj, point)
            f0 = f_cur
            for t in range(max_iters):
                nxt = full_gradient_step(point, gx, gy, step)
                f_next, gx_next, gy_next = evaluate(obj, nxt)
                _append_row(rows, t, (f_cur, f_next, f_next, float(gx @ gx) + float(gy @ gy),
                                      float(np.linalg.norm(gy)), e_t))
                point, f_cur, gx, gy = nxt, f_next, gx_next, gy_next
        except BcdcertError as err:
            error = err
            stop = StopReason.ERROR
    return _result(rows, f0, point, stop, error, t_start, math.nan)
