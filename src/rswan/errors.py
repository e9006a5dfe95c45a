"""Exception hierarchy for the conductor toolkit.

Every error raised by the library derives from :class:`RswanError`, so
callers can catch one type at the boundary.  The subclasses mirror the
failure modes of the exact-arithmetic layer (precision, structure) and of
the conductor-level operations (windows, degrees, reduction state).
"""

from __future__ import annotations


class RswanError(Exception):
    """Base class for all library errors."""


class PrecisionExhausted(RswanError):
    """A value could not be certified within the available precision window.

    ``exponent``, when set, is the exponent at which certainty was lost.
    """

    def __init__(self, message: str, exponent: int | None = None):
        super().__init__(message)
        self.exponent = exponent


class ExponentOutOfRange(RswanError, ValueError):
    """An exponent falls below the supported range of series exponents.

    Also a ``ValueError``, so that callers catching ``ValueError`` for it
    keep working.
    """


class TowerMismatch(RswanError):
    """Operands belong to different towers / levels / coefficient rings."""


class ZeroInput(RswanError):
    """The operation is undefined for (window-)zero input, e.g. ord or inverse."""


class ParseError(RswanError):
    """A series literal failed to parse.  ``position`` is the 0-based offset."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class UnknownVariable(ParseError):
    """A literal mentions a variable the tower does not declare."""


class NonEmbedding(RswanError):
    """A claimed field embedding violates its valuation/separability constraints."""


class DegreeOverflow(RswanError):
    """A form degree exceeds the number of tower variables."""


class NotTopDegree(RswanError):
    """The operation (Cartier, residue, pairing) needs a top-degree form."""


class NoPthRoot(RswanError):
    """No p-th root exists (exponent not divisible by p, or coefficient not a power)."""


class WindowTooWide(RswanError):
    """The window width exceeds what the requested Cartier iterate can handle (p^b < a)."""


class DegreeMismatch(RswanError):
    """Form degrees are incompatible (pairing needs i + j = r + 1, wedge overflow, ...)."""


class UnramifiedCharacter(RswanError):
    """The character has Swan conductor 0, so no refined Swan conductor exists."""


class InconsistentValue(RswanError):
    """Two independent computations of the same quantity disagree."""


class NonPerfectBase(RswanError):
    """The operation requires a one-dimensional (perfect-residue-field) source."""


class NotTopological(RswanError):
    """The truncated exponential needs an argument of positive valuation."""


class ZeroEntry(RswanError):
    """A symbol entry is zero (window-zero included), so the symbol is undefined."""


class ConfigError(RswanError):
    """A run configuration or a tower descriptor is malformed, or references
    undefined identifiers."""
