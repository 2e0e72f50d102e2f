"""Exception types shared across the package."""


class AbhkError(Exception):
    """Base class for all package errors."""


class FieldMismatchError(AbhkError):
    """Two scalars from different coefficient fields were combined."""


class AlgebraMismatchError(AbhkError):
    """Two elements from different algebras were combined."""


class CharacterError(AbhkError):
    """A scalar assignment does not extend to an algebra homomorphism."""


class AutomorphismError(AbhkError):
    """Generator images do not define an algebra automorphism."""


class NotInvertibleError(AbhkError):
    """An element without a multiplicative inverse was inverted."""


class HopfDataError(AbhkError):
    """Extension data violates a structural precondition."""


class UnsupportedBaseError(AbhkError):
    """The requested computation is not available for this base family or
    these operands."""


class InternalError(AbhkError):
    """An engine invariant that should be unbreakable was breached."""
