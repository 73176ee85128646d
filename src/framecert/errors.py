"""Exception types raised across the package.

Every error is a :class:`FramecertError`, so callers that only want a broad
"this input was rejected" category can catch the base class.  A subclass
exists only where a caller acts on it; every other rejection raises
``FramecertError`` itself with a message naming the cause.
"""

__all__ = ["FramecertError", "NotRetrievableInput"]


class FramecertError(Exception):
    """Base class for all package-specific errors."""


class NotRetrievableInput(FramecertError):
    """An operation that only makes sense for a phase retrievable frame was
    given a frame without a positive injectivity margin.  The CLI exits 1
    on it, where every other rejection exits 64."""
