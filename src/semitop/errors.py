"""Exception types shared across the package."""


class SemitopError(Exception):
    """Base class for all package errors."""


class MalformedTableError(SemitopError):
    """Multiplication table is not square or has out-of-range entries."""


class DomainError(SemitopError):
    """Argument does not satisfy an operation's precondition."""


class KindError(SemitopError):
    """Congruence kind does not match what the operation requires."""


class SizeError(SemitopError):
    """Input exceeds a configured enumeration bound."""


class EvaluationError(SemitopError):
    """An element cannot be evaluated at a constrained point."""


class TheoremViolationError(SemitopError):
    """A constructor that must produce a verified object failed its check."""


class LoadError(SemitopError):
    """An input file is malformed."""
