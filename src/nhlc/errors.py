"""Exception types shared across the package."""


class NhlcError(Exception):
    """Base class for all package-specific errors."""


class ShapeError(NhlcError):
    """Dimension or group-shape mismatch between operands."""


class ArityError(NhlcError):
    """Operation applied to an algebra of unsupported arity."""


class InvertibilityError(NhlcError):
    """A negative twist power was requested but the twist map is singular."""


class HypothesisError(NhlcError):
    """A verifier was invoked on an algebra violating its hypotheses."""


class TruncationError(NhlcError):
    """A map space is not closed within the computed twist-power range."""


class DecompositionError(NhlcError):
    """A vector does not lie in the derived subalgebra."""


class DomainError(NhlcError, ValueError):
    """An argument lies outside the domain of an operation."""


class FormatError(NhlcError):
    """Malformed algebra file or report payload."""


class AlgebraValidationError(NhlcError):
    """An algebra failed axiom validation; carries the report."""

    def __init__(self, message, report):
        super().__init__(message)
        self.report = report
