"""Error taxonomy shared across the toolkit.

Two broad families matter for the CLI exit-code contract: configuration
and usage problems (exit 2) versus physics, geometry, and data problems
discovered while computing (exit 3).
"""


class LevoscError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(LevoscError):
    """Bad configuration, arguments, or file wiring (exit code 2)."""


class DomainError(LevoscError):
    """Input outside the validity domain of a model (exit code 3)."""


class GeometryError(DomainError):
    """Coil or sphere arrangement that the model cannot represent."""


class SolverError(DomainError):
    """Direct field solve refused or failed: a sphere too large for the
    capacitance solve, a residual over the tolerance, or a flux point
    outside the grid."""


class DataError(DomainError):
    """Input data malformed, missing, or insufficient for a computation."""


class FitError(DomainError):
    """Parameter estimation failed on structurally unusable data."""


class BracketError(FitError):
    """Optimum pinned to a search-bracket edge; the parameter is not
    identified by the supplied data."""
