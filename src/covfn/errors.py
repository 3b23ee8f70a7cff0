"""Exception hierarchy shared across the package."""

from contextlib import contextmanager

import numpy as np


class CovfnError(Exception):
    """Base class for all errors raised by this package."""


class EigFailure(CovfnError):
    """Eigendecomposition did not converge."""


class DomainError(CovfnError):
    """An eigenvalue (or scalar argument) lies outside the function's domain."""


class DimMismatch(CovfnError):
    """Operands have incompatible dimensions."""


class NotPSD(CovfnError):
    """Matrix has negative eigenvalues beyond tolerance."""


class ZeroMatrix(CovfnError):
    """Operation undefined for the zero matrix."""


class NumericOverflow(CovfnError):
    """A result left the floating-point range."""


def finite(x, what: str):
    """``x`` if every entry is finite, else NumericOverflow naming ``what``."""
    if not np.all(np.isfinite(x)):
        raise NumericOverflow(f"{what} overflows floating point; rescale the data")
    return x


@contextmanager
def overflow_stage(stage: str):
    """Re-raise a NumericOverflow from the block with ``stage`` named."""
    try:
        yield
    except NumericOverflow as exc:
        raise NumericOverflow(f"{stage}: {exc}") from None


class BadAlpha(CovfnError):
    """Confidence level outside (2^-53, 1)."""


class ParseError(CovfnError):
    """A cell of an input file failed to parse.

    Carries 1-based (line, column) location.
    """

    def __init__(self, line, column, message):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class RaggedRows(CovfnError):
    """CSV rows have inconsistent column counts."""

    def __init__(self, line, expected, got):
        super().__init__(
            f"line {line}: expected {expected} columns, got {got}"
        )
        self.line = line


class IoError(CovfnError):
    """File could not be read."""


class UsageError(CovfnError):
    """Bad command line or config file."""
