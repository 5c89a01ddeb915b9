"""Exception types shared across the package.

Every error raised on purpose by this library derives from CatalysisError so
callers (and the CLI) can tell domain failures apart from genuine bugs.
"""


class CatalysisError(Exception):
    """Base class for all errors raised by this package."""


class NegativeEntry(CatalysisError, ValueError):
    """A raw Schmidt coefficient is negative beyond the construction tolerance."""


class NotNormalized(CatalysisError, ValueError):
    """Raw Schmidt coefficients do not sum to 1 within the construction tolerance."""


class IndexOutOfRange(CatalysisError, IndexError):
    """A partial-sum index lies outside the admissible range."""


class DomainError(CatalysisError, ValueError):
    """A scalar argument lies outside its mathematical domain."""


class PreconditionViolated(CatalysisError, ValueError):
    """An operation was invoked on inputs that violate its stated preconditions."""


class EmptyCatalystSet(CatalysisError, ValueError):
    """No catalyst of the requested rank exists for the pair."""


class NotACatalyst(CatalysisError, ValueError):
    """The supplied borrowed state is not a catalyst for the pair."""


class InvalidConfiguration(CatalysisError, ValueError):
    """A state quadruple is not a valid supercatalytic configuration.

    Carries the list of failed conditions in ``failures``.
    """

    def __init__(self, failures):
        self.failures = list(failures)
        super().__init__("invalid configuration: " + "; ".join(self.failures))


class ZeroDenominator(CatalysisError, ArithmeticError):
    """The entropy drop of the main transformation is too small to divide by."""


class InvalidEpsilon(CatalysisError, ValueError):
    """The family parameter takes one of its vectors outside the ordered simplex."""
