"""Two-block coordinate descent with a runtime convergence certificate.

The solver alternates an exact y-block solve with a certified x-block update
and records, per iteration, the quantities needed to machine-check the
sufficient-decrease inequality, its telescoped sum, and the min-gradient
rate bound along the actual run.
"""

from .certificate import (
    Certificate,
    IterationRecord,
    fit_rate,
    min_grad_bound,
)
from .errors import (
    BacktrackExhausted,
    BcdcertError,
    ConfigError,
    DegenerateFit,
    DegenerateRegion,
    DimensionMismatch,
    EmptyHistory,
    InnerSolveFailed,
    InsufficientHistory,
    InvalidDimensions,
    MissingExactMinimizer,
    MissingLipschitzOracle,
    NonFiniteValue,
    SchemaMismatch,
    SingularSystem,
    SufficientDecreaseViolated,
    TamperDetected,
    UnknownFamily,
)
from .numerics import (
    FiniteDiffReport,
    fd_check_gradients,
    probe_lipschitz_x,
)
from .problem import BlockPoint, Objective
from .problems import (
    FAMILY_NAMES,
    CoupledQuadratic,
    LipschitzOverride,
    MatrixFactorization,
    ProblemSpec,
    TightQuadratic,
    TwoBlockRosenbrock,
    joint_solve_oracle,
    make_problem,
    random_start,
)
from .solver import RunResult, SolverConfig, StopReason, solve, solve_gd_baseline
from .strategies import (
    BacktrackParams,
    XUpdateResult,
    backtracking_gradient_x,
    exact_min_x,
    fixed_step_gradient_x,
    stationary_y,
)
from .traceio import (
    TRACE_HEADER,
    TraceRow,
    TraceVerdict,
    read_trace,
    verify_trace,
    write_trace,
)

__version__ = "0.1.0"

__all__ = [
    "BacktrackExhausted",
    "BacktrackParams",
    "BcdcertError",
    "BlockPoint",
    "Certificate",
    "ConfigError",
    "CoupledQuadratic",
    "DegenerateFit",
    "DegenerateRegion",
    "DimensionMismatch",
    "EmptyHistory",
    "FAMILY_NAMES",
    "FiniteDiffReport",
    "InnerSolveFailed",
    "InsufficientHistory",
    "InvalidDimensions",
    "IterationRecord",
    "LipschitzOverride",
    "MatrixFactorization",
    "MissingExactMinimizer",
    "MissingLipschitzOracle",
    "NonFiniteValue",
    "Objective",
    "ProblemSpec",
    "RunResult",
    "SchemaMismatch",
    "SingularSystem",
    "SolverConfig",
    "StopReason",
    "SufficientDecreaseViolated",
    "TRACE_HEADER",
    "TamperDetected",
    "TightQuadratic",
    "TraceRow",
    "TraceVerdict",
    "TwoBlockRosenbrock",
    "UnknownFamily",
    "XUpdateResult",
    "backtracking_gradient_x",
    "exact_min_x",
    "fd_check_gradients",
    "fit_rate",
    "fixed_step_gradient_x",
    "joint_solve_oracle",
    "make_problem",
    "min_grad_bound",
    "probe_lipschitz_x",
    "random_start",
    "read_trace",
    "solve",
    "solve_gd_baseline",
    "stationary_y",
    "verify_trace",
    "write_trace",
]
