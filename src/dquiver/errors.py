"""Shared exception types, the int check of every count's argument and ``_check_type``."""


class BoundExceededError(RuntimeError):
    """An enumeration grew past its configured resource bound, or a count
    past what its prime sieve can address."""


def _check_type(name: str, value: int) -> None:
    """ValueError unless ``value`` is an int (not a bool)."""
    # type(...) is int: a bool or a float is rejected, not reinterpreted
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_int(count: str, name: str, value: int, least: int) -> None:
    """ValueError unless ``value`` is an int (not a bool) of at least ``least``."""
    # type(...) is int: a bool or a float is rejected, not reinterpreted
    if type(value) is not int:
        raise ValueError(f"{count} needs an integer {name}, got {value!r}")
    if value < least:
        raise ValueError(f"{count} needs {name} >= {least}, got {value}")
