"""Exception types shared across the package.

The CLI maps these onto exit codes: configuration problems exit with 2,
numerical failures with 3, and file-format or I/O problems with 4.
"""

from __future__ import annotations


class FpblockError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(FpblockError):
    """Invalid parameters, inconsistent geometry, or contradictory options."""


class DimensionError(ConfigurationError):
    """Operands whose shapes or grids do not line up."""


class DivergenceError(FpblockError):
    """A trajectory left the safety box or produced a non-finite state."""

    def __init__(self, message: str, chain: int | None = None, step: int | None = None):
        super().__init__(message)
        self.chain = chain
        self.step = step


class NonConvergenceError(FpblockError):
    """An iterative solve hit its iteration cap before reaching tolerance."""

    def __init__(self, message: str, residual_history=None):
        super().__init__(message)
        self.residual_history = residual_history


class RankDeficiencyError(FpblockError):
    """Breakdown of the normal-equations solve (an empty row of A, non-positive
    CG curvature, or a sparse factorization that fails or misses its residual
    bound).
    """


class SizeError(FpblockError):
    """A dense computation was requested beyond its supported size cap."""


class EmptyHistogramError(FpblockError):
    """No retained sample fell inside the domain."""


class UndefinedRatioError(FpblockError):
    """A ratio diagnostic was requested on an identically zero field."""


class CollageError(FpblockError):
    """Internal tiling inconsistency: a coverage gap or a double write."""


class FormatError(FpblockError):
    """A file did not match the expected on-disk format."""
