"""Exception types raised by validation and construction routines."""


class IskkError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(IskkError):
    """A structure failed one of its defining axioms; carries a witness."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotAssociative(ValidationError):
    pass


class NoUniqueInverse(ValidationError):
    pass


class IdempotentsDontCommute(ValidationError):
    pass


class BadUnit(ValidationError):
    pass


class BadZero(ValidationError):
    pass


class NotIdempotent(ValidationError):
    pass


class DependentVector(ValidationError, ValueError):
    """A vector given as independent lies in the span of its predecessors;
    the witness is its index."""


class NotZeroOneValued(ValidationError, ValueError):
    """A function read as a support mask takes a value other than 0 or 1;
    the witness is the position and the value."""


class UnsupportedSize(IskkError):
    pass


class NotSubsemigroup(ValidationError):
    pass


class NotCentral(ValidationError):
    pass


class NotEquivariant(ValidationError):
    pass


class NotEUnitary(ValidationError):
    pass


class InvalidCoefficientAlgebra(ValidationError):
    pass


class InvalidAction(ValidationError):
    pass


class BaseMismatch(ValidationError):
    """Algebras that one operation combines live over different semigroups
    or groupoids."""


class BrokenInvariant(ValidationError):
    """A computed invariant that every valid input satisfies failed, such as
    a non-squarefree minimal polynomial of a semisimple center."""


class ChainTooLong(IskkError):
    pass


class NonIntegralMultiplicity(IskkError):
    pass


class CenterDoesNotSplit(IskkError):
    def __init__(self, message, witness_poly=None):
        super().__init__(message)
        self.witness_poly = witness_poly


class HypothesesNotMet(IskkError):
    pass


class MalformedInput(IskkError):
    """Bad user-supplied data (files, CLI specs); maps to exit code 2."""
