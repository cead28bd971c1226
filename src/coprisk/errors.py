"""Exception types shared across the package."""


class CopriskError(Exception):
    """Base class for all package-specific errors."""


class DataError(CopriskError):
    """Raised when input data is malformed or violates a dataset invariant."""


class EstimationError(CopriskError):
    """Raised when an estimation step cannot produce a valid result."""
