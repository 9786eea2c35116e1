"""Typed errors raised by the numerical routines.

Invalid input, a broken precondition or a value outside an operation's
domain, is a usage mistake; a numerical failure (divergence, a pole,
non-convergence) is a legitimate runtime outcome that diagnostic tooling
catches and reports rather than crashes on.
"""


class InvalidInputError(ValueError):
    """Input violates a precondition: shape, finiteness, range or mathematical domain."""


class NumericalFailureError(ArithmeticError):
    """A numerical method failed: divergence, non-convergence, or breakdown.

    Extra keyword arguments are stored in ``details`` so callers can inspect
    residuals, offending indices, or breakdown steps programmatically.
    """

    def __init__(self, message, **details):
        super().__init__(message)
        self.details = details


class PoleError(NumericalFailureError):
    """Rational function evaluated at (or numerically on top of) a pole."""
