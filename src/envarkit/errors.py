"""Exception types shared across the package.

The CLI maps these onto process exit codes: usage problems exit 1, data and
file-format problems exit 2, numerical failures exit 3.
"""

from __future__ import annotations


class EnvarKitError(Exception):
    """Base class for all package errors."""


class DimensionError(EnvarKitError, ValueError):
    """Input has the wrong shape, is non-square, or contains non-finite entries."""


class AdmissibilityError(EnvarKitError, ValueError):
    """A structural model failed an admissibility precondition.

    Carries the report produced by ``model_core.is_admissible`` in
    ``diagnostics`` when available.
    """

    def __init__(self, message: str, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics


class StabilityError(EnvarKitError, ValueError):
    """A transition matrix has spectral radius >= 1 where stability is required."""


class FactorizationError(EnvarKitError, ValueError):
    """A matrix factorization precondition was violated (e.g. Gram mismatch)."""


class RankError(EnvarKitError, ValueError):
    """A matrix that must be well-conditioned is numerically rank deficient."""


class NotPositiveDefiniteError(EnvarKitError, ValueError):
    """A matrix that must be positive definite is not."""


class GenerationError(EnvarKitError, RuntimeError):
    """Synthetic instance generation exhausted its retry budget."""


class OptimizerDivergedError(EnvarKitError, RuntimeError):
    """A restart of the optimizer met a non-finite objective or gradient; the
    message names the restart and step, and ``trace`` holds its finite values."""

    def __init__(self, message: str, trace=()):
        super().__init__(message)
        self.trace = tuple(trace)


class DataFormatError(EnvarKitError, ValueError):
    """A file or record does not conform to the expected on-disk schema."""
