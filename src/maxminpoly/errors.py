"""Exception types shared by all maxminpoly modules."""


class MaxMinError(Exception):
    """Base class for all domain errors raised by this package."""


class DigitOutOfRange(MaxMinError):
    """A digit does not fit the base it was declared under."""


class BaseMismatch(MaxMinError):
    """Two operands (or a map and its argument) disagree on the base."""


class ZeroPolynomial(MaxMinError):
    """The zero polynomial was passed where a nonzero one is required."""


class ZeroDivisor(MaxMinError):
    """Division by the zero polynomial."""


class DegreeTooLarge(MaxMinError):
    """The divisor degree exceeds the dividend degree."""


class LevelOutOfRange(MaxMinError):
    """Support level i outside 1..b-1."""


class NonCanonical(MaxMinError):
    """Textual/JSON input carries trailing zeros and lenient mode is off."""


class BudgetExceeded(MaxMinError):
    """An exhaustive enumeration is larger than the configured budget."""


class BoundExceeded(MaxMinError):
    """A count exceeds the ceiling it is checked against."""


class WindowTooShort(MaxMinError):
    """A digit-stream scan asked for a window longer than the valid prefix."""


class InsufficientSupport(MaxMinError):
    """A polynomial has fewer nonzero coefficients than the requested count."""
