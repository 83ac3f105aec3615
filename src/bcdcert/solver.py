"""Outer BCD loop: exact y-stationarity, certified x-step, repeat.

One initial ``stationary_y`` call makes the certificate's standing hypothesis
(grad_y = 0 at every measured iterate) true by construction; after that each
iteration measures grad_x at (x_t, y_t), applies the configured x-strategy,
re-solves the y block and records the step. The recorded columns are folded
once, when the loop ends (``audit.refold``): the returned ``History`` holds
the flat row buffer's strided slices as its raw columns and the fold's own
buffers as its derived ones, and the ``Certificate`` is the fold's.

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

from .audit import Certificate, check_record, check_tol_for
from .errors import BcdcertError, NonFiniteValue
# evaluate is unused here, but perfbench/tracing.py wraps bcdcert.solver.evaluate
from .problem import BlockPoint, Objective, checked_grad, checked_value, evaluate
from .strategies import (
    BacktrackParams,
    backtracking_gradient_x,
    exact_min_x,
    fixed_step_gradient_x,
    stationary_y,
)
from .traceio import History

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
            strategy, grad_tol, backtrack, extend = cfg.x_strategy, cfg.grad_tol, cfg.backtrack, rows.extend
            for t in range(cfg.max_iters):
                gx, gx_sq = checked_grad(obj, point, "x")
                if math.sqrt(gx_sq + gy_sq) <= grad_tol:
                    stop = StopReason.GRAD_TOL
                    break
                if strategy == "fixed_step":
                    upd = fixed_step_gradient_x(obj, point, f_cur, gx, gx_sq, check_tol)
                elif strategy == "exact_min":
                    upd = exact_min_x(obj, point, f_cur, gx, gx_sq, check_tol)
                else:
                    upd = backtracking_gradient_x(
                        obj, point, f_cur, gx, gx_sq, check_tol, backtrack, l_x
                    )
                    if upd.inner_evals:
                        l_x = upd.e_t
                point, residual, f_after_y, gy_sq, l_y = stationary_y(
                    obj, upd.point, upd.f_next, y_tol, check_tol, backtrack, l_y
                )
                row = (f_cur, upd.f_next, f_after_y, gx_sq, residual, upd.e_t)
                # _append_row's own test, inline: only a row it would check pays the call
                if math.isfinite(gx_sq + residual + upd.e_t):
                    extend(row)
                else:
                    _append_row(rows, t, row)
                f_cur = f_after_y
        except BcdcertError as err:
            error = err
            stop = StopReason.ERROR
    history, cert = History._fold(rows, f0)
    cert.invalidated = error is not None
    return RunResult(final=point, certificate=cert, history=history, stop_reason=stop,
                     wall_time=time.perf_counter() - t_start, y_tol=y_tol,
                     check_tol=check_tol_for(cert.f0), init_y_residual=init_residual, error=error)


class _JointView(Objective):
    """``obj`` as one x block, (x, y), with n_y = 0 and lipschitz_x = 1/step.

    Each block gradient is read through ``checked_grad``, so a block of the
    wrong size is refused even when the joint size is right.
    """

    n_y = 0

    def __init__(self, obj: Objective, step: float):
        self.obj, self.n_x, self._lip = obj, obj.n_x + obj.n_y, 1.0 / step

    def split(self, p: BlockPoint) -> BlockPoint:
        return BlockPoint(p.x[: self.obj.n_x], p.x[self.obj.n_x :])

    def value(self, p):
        return self.obj.value(self.split(p))

    def grad_x(self, p):
        q = self.split(p)
        return np.concatenate((checked_grad(self.obj, q, "x")[0], checked_grad(self.obj, q, "y")[0]))

    def grad_y(self, p):
        return np.zeros(0)

    def lipschitz_x(self, y):
        return self._lip


def _baseline_config(step: float, max_iters: int) -> SolverConfig:
    """The baseline's run; ValueError names a bad argument. ``grad_tol`` is the
    smallest positive float, so only an exactly zero gradient stops it early."""
    if not (math.isfinite(step) and step > 0):
        raise ValueError("step must be finite and positive")
    return SolverConfig(grad_tol=math.ulp(0.0), max_iters=max_iters)


def solve_gd_baseline(obj: Objective, start: BlockPoint, step: float, max_iters: int) -> RunResult:
    """Joint gradient descent with ``step``: ``solve()`` with ``fixed_step`` on
    the one-block view of ``obj``, so each row records the joint gradient norm
    and e_t = 1/step, and a step too large for f ends the run at its first
    failed decrease. ``final`` comes back split into the two blocks."""
    cfg = _baseline_config(step, max_iters)
    obj.check_point(start)
    view = _JointView(obj, step)
    res = solve(view, BlockPoint(np.concatenate((start.x, start.y))), cfg)
    res.final = view.split(res.final)
    return res
