"""Shared exception types."""


class BoundExceededError(RuntimeError):
    """An enumeration grew past its configured resource bound, or a count
    past what its prime sieve can address."""
