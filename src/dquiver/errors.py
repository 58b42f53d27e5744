"""Shared exception types, the int check of every count's argument, ``_check_type``
and ``_Value``, the base of the package's values."""

from operator import attrgetter


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


class _Value:
    """A value, equal and hashed by the fields its class names once.

    ``class Cls(_Value, fields=(...))`` keeps them as ``_fields`` and ``_key``,
    which reads them as one tuple in one C call, so equality and hashing never
    loop in Python.  The repr is ``Cls(f=v, ...)``, and attributes are
    read-only.  A copy or a pickle is ``Cls._of(*fields)``, the constructor
    unless a class has its own, so it holds the fields and nothing else.
    """

    __slots__ = ()

    def __init_subclass__(cls, fields: tuple[str, ...]) -> None:
        cls._fields, cls._key = fields, attrgetter(*fields)

    @classmethod
    def _of(cls, *fields):
        return cls(*fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._key(self)))
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        # the fields alone: a quiver's ``b`` and a triangulation's views stay behind
        return type(self)._of, self._key(self)
