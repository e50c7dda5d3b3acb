"""Exception types shared across the package.

The CLI maps these onto exit codes: VerificationError -> 1,
InputError -> 2, HypothesisViolation and ConstructionFailure -> 3, and
RetryBudgetExhausted -> 4; any other exception is an internal error, 5.
"""


class InputError(ValueError):
    """Malformed or out-of-contract input."""


class HypothesisViolation(InputError):
    """A structural hypothesis required by an operation does not hold."""


class RetryBudgetExhausted(RuntimeError):
    """A randomized construction failed for every retry; carries diagnostics."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class VerificationError(RuntimeError):
    """An exact re-check of a claimed multiplicity failed."""


class ConstructionFailure(RuntimeError):
    """A constructor proved that no admissible output exists for its input.

    Unlike RetryBudgetExhausted this is a definitive outcome and carries an
    exact transcript of the obstruction.
    """

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate or {}
