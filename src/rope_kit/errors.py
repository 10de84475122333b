"""Exception taxonomy shared across the package.

The package's own checks raise a ``RopeKitError``. An index outside a
table or a vocabulary is a ``DataError``; a sequence longer than a
model's context is a ``ConfigurationError``.
"""


class RopeKitError(Exception):
    """Base class for all rope-kit errors."""


class DimensionError(RopeKitError, ValueError):
    """Tensor shapes do not line up for the requested operation."""


class ConfigurationError(RopeKitError, ValueError):
    """Invalid configuration value (odd rotary dim, zero steps, ...)."""


class NumericError(RopeKitError, ArithmeticError):
    """A computation produced NaN/Inf or an otherwise unusable value.

    Raised eagerly: non-finite values never propagate silently.
    """


class DataError(RopeKitError, ValueError):
    """Input data is missing, empty, or inconsistent."""
