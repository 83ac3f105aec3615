"""Two-block coordinate descent with a runtime convergence certificate.

The solver alternates an exact y-block solve with a certified x-block update
and records, per iteration, the quantities needed to machine-check the
sufficient-decrease inequality, its telescoped sum, and the min-gradient
rate bound along the actual run.

The root exports the API the README documents. Everything else stays in its
module: the error leaves in ``bcdcert.errors``, the bundled problem classes
in ``bcdcert.problems``, the oracle probes in ``bcdcert.numerics``.
"""

from .certificate import Certificate, History, IterationRecord, fit_rate
from .errors import BcdcertError
from .problem import BlockPoint, Objective
from .problems import ProblemSpec, make_problem, random_start
from .solver import RunResult, SolverConfig, StopReason, solve, solve_gd_baseline
from .strategies import (
    BacktrackParams,
    XUpdateResult,
    backtracking_gradient_x,
    exact_min_x,
    fixed_step_gradient_x,
    stationary_y,
)
from .traceio import read_trace, verify_trace, write_trace

__version__ = "0.1.0"

__all__ = [
    "BacktrackParams",
    "BcdcertError",
    "BlockPoint",
    "Certificate",
    "History",
    "IterationRecord",
    "Objective",
    "ProblemSpec",
    "RunResult",
    "SolverConfig",
    "StopReason",
    "XUpdateResult",
    "backtracking_gradient_x",
    "exact_min_x",
    "fit_rate",
    "fixed_step_gradient_x",
    "make_problem",
    "random_start",
    "read_trace",
    "solve",
    "solve_gd_baseline",
    "stationary_y",
    "verify_trace",
    "write_trace",
]
