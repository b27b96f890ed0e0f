"""Exception types shared across the package."""

from contextlib import contextmanager


class SrmError(Exception):
    """Base class for all srmkit errors."""


class ValidationError(SrmError, ValueError):
    """An input violates a documented invariant."""


class UnsupportedOperationError(SrmError):
    """The operation is undefined for the given inputs."""


class InsufficientDataError(SrmError):
    """Not enough usable data points to perform a fit."""


class UnknownIndexError(SrmError, ValueError):
    """Index name outside the built-in catalog."""


class TableEntryError(SrmError):
    """A journal-weight table is missing a required entry."""


@contextmanager
def reading(what: str):
    """Report a malformed document as ValidationError, not a raw lookup error.

    Too deep a nesting (``RecursionError``) counts as malformed too, and
    so does a number out of its field's range (``OverflowError``).
    Usable as a context manager or a decorator.
    """
    try:
        yield
    except ValidationError:
        raise
    except (LookupError, TypeError, ValueError, AttributeError, RecursionError,
            OverflowError) as exc:
        raise ValidationError(f"malformed {what}: {type(exc).__name__}: {exc}") from None
