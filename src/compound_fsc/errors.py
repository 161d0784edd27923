"""Exceptions shared across the package."""


class ValidationError(ValueError):
    """Malformed input: bad shapes, non-stochastic rows, alphabet mismatches."""


class CapExceededError(RuntimeError):
    """An exact enumeration would exceed its fixed size limit."""


class NotMarkovianError(ValidationError):
    """State marginal of the kernel depends on the channel input."""


class NoStationaryError(ValueError):
    """State chain is reducible or periodic; no unique limiting distribution."""
