"""Typed errors raised by the numerical routines.

The distinction matters for callers: invalid input and domain errors are
programming/usage mistakes, while numerical failures are legitimate runtime
outcomes (divergence, poles, non-convergence) that diagnostic tooling wants
to catch and report rather than crash on.
"""


class InvalidInputError(ValueError):
    """Input violates a structural precondition (shape, finiteness, range)."""


class DomainError(ValueError):
    """Input is outside the mathematical domain of the operation."""


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
