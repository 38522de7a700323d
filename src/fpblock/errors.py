"""Exception types shared across the package.

The CLI maps these onto exit codes: configuration problems exit with 2,
numerical failures (NumericalError and its subclasses) with 3, and
file-format or I/O problems with 4. Any other FpblockError exits with 3.
"""

from __future__ import annotations


class FpblockError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(FpblockError):
    """Invalid parameters, inconsistent geometry, or contradictory options."""


class DimensionError(ConfigurationError):
    """Operands whose shapes or grids do not line up."""


class NumericalError(FpblockError):
    """Base class of the failures the CLI reports as numerical (exit 3)."""


class DivergenceError(NumericalError):
    """A trajectory left the safety box or produced a non-finite state."""

    def __init__(self, message: str, chain: int | None = None, step: int | None = None):
        super().__init__(message)
        self.chain = chain
        self.step = step


class NonConvergenceError(NumericalError):
    """An iterative solve hit its iteration cap before reaching tolerance."""

    def __init__(self, message: str, residual_history=None):
        super().__init__(message)
        self.residual_history = residual_history


class RankDeficiencyError(NumericalError):
    """Breakdown of the normal-equations solve (an empty row of A, non-positive
    CG curvature, or a sparse factorization that fails or misses its residual
    bound). member is the index of the failed system in a stack, if known.
    """

    def __init__(self, message: str, member: int | None = None):
        super().__init__(message)
        self.member = member


class SizeError(NumericalError):
    """A dense computation was requested beyond its supported size cap."""


class EmptyHistogramError(NumericalError):
    """No retained sample fell inside the domain."""


class UndefinedRatioError(NumericalError):
    """A ratio diagnostic was requested on an identically zero field."""


class CollageError(FpblockError):
    """Internal tiling inconsistency: a coverage gap or a double write."""


class FormatError(FpblockError):
    """A file did not match the expected on-disk format."""
