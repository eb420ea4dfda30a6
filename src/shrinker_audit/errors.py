"""Exception taxonomy shared across the package.

Every refusal the library makes on purpose (degenerate model, undefined
cutoff, unmet scan precondition, ...) is a distinct type so callers and the
CLI can map them to exit codes instead of pattern-matching messages.
"""


class ShrinkerAuditError(Exception):
    """Base class for all package errors."""


class InvalidModelError(ShrinkerAuditError):
    """Malformed model specification (bad family, dimensions, or syntax)."""


class InvalidPointError(ShrinkerAuditError):
    """Point or tangent vector violates its representation invariants."""


class DegenerateModelError(ShrinkerAuditError):
    """Operation requires R > 0 or f(O) > 0 and the model cannot provide it."""


class DegenerateEndpointsError(ShrinkerAuditError):
    """Boundary-value problem posed with coincident endpoints."""


class CutoffUndefinedError(ShrinkerAuditError):
    """Trapezoid cutoff requested on an interval shorter than 2."""


class PreconditionError(ShrinkerAuditError):
    """A documented precondition (e.g. the scan radius threshold) fails."""


class MetricConditionError(ShrinkerAuditError):
    """Chart metric is numerically singular (condition number too large)."""


class SolverError(ShrinkerAuditError):
    """Base class for numerical solver failures."""


class DriftExceededError(SolverError):
    """Conserved-quantity drift along an integrated path exceeded its bound."""


class ShootingConvergenceError(SolverError):
    """Shooting Newton iteration did not reach the endpoint tolerance."""


class IllConditionedShootingError(SolverError):
    """Endpoint-miss Jacobian is numerically singular (conjugate-point-like)."""


class ConfigError(ShrinkerAuditError):
    """CLI / run configuration is invalid; message names the offending field."""
