"""Error types shared across the toolkit.

Every error carries a stable machine-readable ``code`` so the CLI can
report failures uniformly and scripts can dispatch on them.
"""


class FinefillError(Exception):
    """Base class; ``code`` identifies the failure category."""

    code = "ERROR"


class ValidationError(FinefillError):
    """Raised when a raw complex description is rejected.

    ``violations`` is a list of (code, message) pairs; all problems found
    are reported, not just the first.
    """

    code = "INVALID_COMPLEX"

    def __init__(self, violations):
        self.violations = list(violations)
        lines = "; ".join(f"{c}: {m}" for c, m in self.violations)
        super().__init__(lines)


class FormatError(FinefillError):
    code = "BAD_FORMAT"


class UnknownCellError(FinefillError):
    code = "UNKNOWN_CELL"


class UnknownEdgeError(FinefillError):
    code = "UNKNOWN_EDGE"


class NotACycleError(FinefillError):
    code = "NOT_A_CYCLE"


class NotACircuitError(FinefillError):
    code = "NOT_A_CIRCUIT"


class HasFacesError(FinefillError):
    code = "HAS_FACES"


class FVInfiniteError(FinefillError):
    code = "FV_INFINITE"


class FillingInfiniteError(FinefillError):
    code = "FILLING_INFINITE"


class DisconnectedError(FinefillError):
    code = "DISCONNECTED"


class TooLargeError(FinefillError):
    code = "TOO_LARGE"


class CapExceededError(FinefillError):
    code = "CAP_EXCEEDED"


class RelatorFailsError(FinefillError):
    code = "RELATOR_FAILS"


class BudgetExceededError(FinefillError):
    """Search budget exhausted; results so far are incomplete, not wrong."""

    code = "BUDGET_EXCEEDED"


class InternalError(FinefillError):
    """An internal invariant failed; indicates a bug, not bad input."""

    code = "INTERNAL"
