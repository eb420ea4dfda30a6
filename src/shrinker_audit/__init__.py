"""Numerical laboratory for gradient Ricci shrinkers.

Closed-form shrinker catalog, a finite-difference curvature oracle,
potential-geodesic boundary-value solvers, and audits that evaluate a chain
of comparison-geometry identities and inequalities with explicit margins.
"""

from . import audit, models, numgeom, paths, phigeo
from .errors import ShrinkerAuditError

__version__ = "0.1.0"

__all__ = [
    "audit",
    "cli",
    "models",
    "numgeom",
    "paths",
    "phigeo",
    "ShrinkerAuditError",
    "__version__",
]
