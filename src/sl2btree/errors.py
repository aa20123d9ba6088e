"""Shared error types.

Every failure mode of the exact-arithmetic layers is loud: nothing ever
silently widens precision, guesses a valuation, or fabricates a coefficient.
Each error class carries as `exit_code` the code that the command-line
interface exits with when it reports the error (the codes are listed in
`cli`).
"""


class Sl2BTreeError(Exception):
    """Base class for all package errors."""


class InvalidInputError(Sl2BTreeError, ValueError):
    """Malformed literal, wrong field, or violated precondition on input."""

    exit_code = 3


class IndeterminateValuation(Sl2BTreeError, ArithmeticError):
    """The valuation of a series is not determined by its known coefficients.

    Raised for a term-free series of finite precision: every known
    coefficient vanishes, so the valuation is only bounded below.
    """

    exit_code = 2


class InsufficientPrecision(Sl2BTreeError, ArithmeticError):
    """A coefficient or operation result lies beyond the stated precision."""

    exit_code = 2

    def __init__(self, message: str, needed: int | None = None):
        super().__init__(message)
        self.needed = needed


class EndPrecisionExhausted(Sl2BTreeError):
    """A truncated boundary end was queried beyond its hard horizon."""

    exit_code = 2


class EqualEndsError(Sl2BTreeError, ValueError):
    """Two boundary ends expected to be distinct coincide."""

    exit_code = 3


class DoesNotFixEnd(Sl2BTreeError, ValueError):
    """The automorphism does not fix the given boundary end."""

    exit_code = 3


class NotFixingError(Sl2BTreeError, ValueError):
    """The automorphism does not fix the given vertex."""

    exit_code = 3


class NotTypePreserving(Sl2BTreeError, ValueError):
    """The automorphism swaps vertex types (odd determinant valuation)."""

    exit_code = 3


class SizeGuardExceeded(Sl2BTreeError):
    """A materialization or enumeration exceeds the configured bound."""

    exit_code = 4


class UncertifiedTail(Sl2BTreeError):
    """A quotient ray tail is not certified, so the query has no exact answer."""

    exit_code = 1


class NonterminationGuard(Sl2BTreeError, RuntimeError):
    """An iteration cap fired; must never happen on valid input."""

    exit_code = 5
