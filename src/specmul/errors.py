"""Exception types shared across the package, and the one policy for
reading JSON: which errors of a reader mean that its input is malformed."""

from contextlib import contextmanager


class SpecmulError(Exception):
    """Base class for every error raised by this library."""


class DimensionMismatchError(SpecmulError):
    pass


class NonUnitaryError(SpecmulError):
    pass


class ConvergenceFailureError(SpecmulError):
    pass


class ClosureRefusedError(SpecmulError):
    pass


class IncompleteClosureError(SpecmulError):
    pass


class ClosureInvariantError(SpecmulError):
    """A closure whose index tables do not describe a group."""


class DeterminantNotOneError(SpecmulError):
    pass


class InvalidParamsError(SpecmulError):
    pass


class MalformedJsonError(SpecmulError, ValueError):
    """Serialized input without the expected structure."""


class PrimeMismatchError(SpecmulError):
    pass


class ZeroSpectralRadiusError(SpecmulError):
    pass


@contextmanager
def _loading(what: str):
    """Turn the errors of reading a malformed JSON ``what`` into
    ``MalformedJsonError``: a missing key, a value of the wrong type or
    range, a number too large to convert, nesting too deep to decode."""
    try:
        yield
    except MalformedJsonError:
        raise
    except (AttributeError, KeyError, OverflowError, RecursionError, TypeError,
            ValueError, ZeroDivisionError) as exc:
        raise MalformedJsonError(f"malformed {what}: {exc!r}") from exc


def _is(value, kind) -> bool:
    """``value`` is a ``kind``, and a bool only where ``kind`` is bool."""
    return isinstance(value, bool) is (kind is bool) and isinstance(value, kind)


def _typed(d, key, kind, nullable: bool = False):
    """``d[key]`` if it is a ``kind``, or None if ``nullable``."""
    value = d[key]
    if _is(value, kind) or value is None and nullable:
        return value
    raise TypeError(f"{key} must be {kind}, not {value!r}")


def _complex(re, im) -> complex:
    """``re + i im`` if both are JSON numbers."""
    if not (_is(re, (int, float)) and _is(im, (int, float))):
        raise TypeError(f"re and im must be numbers, not {re!r} and {im!r}")
    return complex(re, im)


def _typed_items(d, key, kind) -> tuple:
    """The items of the list ``d[key]`` if each is a ``kind``."""
    items = _typed(d, key, list)
    if not all(_is(x, kind) for x in items):
        raise TypeError(f"every item of {key} must be {kind}: {items!r}")
    return tuple(items)
