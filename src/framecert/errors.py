"""Exception types raised across the package.

Every error is a subclass of :class:`FramecertError`, so callers that only
want a broad "this input was rejected" category can catch the base class.
A subclass exists only where a caller acts on it or several sites share it;
other rejections raise ``FramecertError`` itself with a message naming the
cause.
"""

__all__ = [
    "FramecertError",
    "NotAFrame",
    "NotRetrievableInput",
    "ShapeMismatch",
    "BadCardinality",
    "SelectionFailed",
    "FrameFormatError",
]


class FramecertError(Exception):
    """Base class for all package-specific errors."""


class NotAFrame(FramecertError):
    """The vector family does not span the ambient space."""


class NotRetrievableInput(FramecertError):
    """An operation that only makes sense for a phase retrievable frame was
    given a frame without a positive injectivity margin."""


class ShapeMismatch(FramecertError):
    """Two frames were required to share the same dimensions."""


class BadCardinality(FramecertError):
    """The requested number of vectors is incompatible with the requested
    dimension."""


class SelectionFailed(FramecertError):
    """No index selection satisfying the construction's requirements could
    be found."""


class FrameFormatError(FramecertError):
    """A frame document violates the wire format; the message names the
    offending field."""
