"""Exception hierarchy.

Every error this package raises derives from :class:`BcdcertError`, so callers
can catch one type at the boundary. The leaf classes are deliberately specific:
which guarantee broke matters more than the message.
"""


class BcdcertError(Exception):
    """Base class for all errors raised by bcdcert."""


# -- oracle / problem errors -------------------------------------------------

class DimensionMismatch(BcdcertError):
    """A point's block dimensions do not match the objective's (n_x, n_y)."""


class NonFiniteValue(BcdcertError):
    """An oracle produced NaN/Inf, or a step left the finite domain."""


class UnknownFamily(BcdcertError):
    """Problem family name not in the bundled registry."""


class InvalidDimensions(BcdcertError):
    """Problem parameters describe an impossible instance."""


class SingularSystem(BcdcertError):
    """A dense solve hit a singular (or numerically unusable) system."""


# -- strategy errors ---------------------------------------------------------

class MissingLipschitzOracle(BcdcertError):
    """Strategy needs lipschitz_x(y) but the objective does not provide it."""


class MissingExactMinimizer(BcdcertError):
    """Strategy needs an exact block minimizer the objective cannot produce."""


class SufficientDecreaseViolated(BcdcertError):
    """The achieved decrease fell short of the certified bound.

    Surfaced, never silently repaired: it means the user's Lipschitz or
    argmin oracle is wrong.
    """


class BacktrackExhausted(BcdcertError):
    """Backtracking hit max_rejects without an acceptable step."""


class InnerSolveFailed(BcdcertError):
    """The y-block could not be driven to stationarity within tolerance."""


# -- certificate errors ------------------------------------------------------

class EmptyHistory(BcdcertError):
    """Operation needs at least one recorded iteration."""


class InsufficientHistory(BcdcertError):
    """Rate fitting needs more records than were provided."""


class DegenerateFit(BcdcertError):
    """Gradient norm hit exactly zero; report convergence, not a slope."""


# -- numerics errors ---------------------------------------------------------

class DegenerateRegion(BcdcertError):
    """Sampling box has no volume."""


# -- trace / CLI errors ------------------------------------------------------

class SchemaMismatch(BcdcertError):
    """Trace file does not match the expected CSV schema."""


class TamperDetected(BcdcertError):
    """Recomputed certificate disagrees with the trace's recorded values."""


class ConfigError(BcdcertError):
    """Run configuration file is invalid."""
