"""Two-block coordinate descent with a runtime convergence certificate.

The solver alternates an exact y-block solve with a certified x-block update
and records, per iteration, the quantities needed to machine-check the
sufficient-decrease inequality, its telescoped sum, and the min-gradient
rate bound along the actual run.

The root exports the API the README documents. Everything else stays in its
module: the error leaves in ``bcdcert.errors``, the bundled problem classes
in ``bcdcert.problems``, the oracle probes in ``bcdcert.numerics``. Each
name is imported from its module on first use (PEP 562), so ``import
bcdcert`` loads nothing, and the trace layer (``bcdcert.traceio`` and
``bcdcert.audit``) runs without numpy.
"""

import importlib

__version__ = "0.1.0"

# Each exported name's module.
_HOMES = {
    "audit": ("Certificate",),
    "errors": ("BcdcertError",),
    "problem": ("BlockPoint", "Objective"),
    "problems": ("ProblemSpec", "make_problem", "random_start"),
    "solver": ("RunResult", "SolverConfig", "StopReason", "solve", "solve_gd_baseline"),
    "strategies": (
        "BacktrackParams",
        "XUpdateResult",
        "backtracking_gradient_x",
        "exact_min_x",
        "fixed_step_gradient_x",
        "stationary_y",
    ),
    "traceio": ("History", "IterationRecord", "read_trace", "verify_trace", "write_trace"),
}
_MODULE_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value
