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
    """A constructor ran out of candidates of the kind it can build.

    Unlike RetryBudgetExhausted no retry can change it, but it proves no
    impossibility: line contact shows only that no rational slope works.
    ``diagnostics`` holds the data the search ran on.
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}
