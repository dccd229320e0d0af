"""Exception and warning types shared across the package.

Numerical failures raise exceptions; recoverable data-quality events
(dropped variogram bins, divergent interaction ratios, spectral mass
truncation, Cholesky jitter, ill-conditioned Gram matrices, fits ending on
a search-box edge) are warnings so that vectorized/batch workflows keep
going.
"""


class OscovError(Exception):
    """Base class for all package-specific exceptions."""


class DomainError(OscovError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class RegimeError(OscovError, ValueError):
    """Operation requested for a damping regime or dispersion it is not defined in."""


class DimensionMismatch(OscovError, ValueError):
    """Spatial dimensions of points, grids, or models disagree."""


class QuadratureFailure(OscovError, RuntimeError):
    """Spectral quadrature could not reach the requested tolerance."""


class NotPositiveDefinite(OscovError, RuntimeError):
    """Cholesky factorization failed even after diagonal jitter escalation."""

    def __init__(self, message: str, pivot: int | None = None):
        super().__init__(message)
        self.pivot = pivot


class NegativeVariance(OscovError, RuntimeError):
    """Predictive variance fell below the roundoff clamp threshold."""


class LagOutOfRange(OscovError, ValueError):
    """Requested covariance lag is not representable on the field's grid."""


class EmptyBinError(OscovError, ValueError):
    """All requested variogram bins were empty."""


class AllBinsSkipped(OscovError, RuntimeError):
    """Every variogram bin was skipped in the objective (model variogram ~ 0)."""


class OptimizerStalled(OscovError, RuntimeError):
    """Optimizer hit the evaluation cap without meeting its tolerance."""


class EmptyBin(UserWarning):
    """A variogram bin contained no pairs and was dropped."""


class DegenerateMarginal(UserWarning):
    """A marginal covariance is within tolerance of zero; ratio set to NaN there."""


class SpectralTruncationWarning(UserWarning):
    """The simulation grid's discrete spectral mass is off the model variance by over 1%."""


class JitterWarning(UserWarning):
    """A Gram matrix factorized only after a diagonal jitter was added."""


class IllConditionedWarning(UserWarning):
    """A Gram matrix factorized, but its reciprocal condition number is below the floor."""


class BoundaryWarning(UserWarning):
    """A fit's search ended on the edge of its box, with the objective falling outward."""
